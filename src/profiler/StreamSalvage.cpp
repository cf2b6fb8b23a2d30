//===- profiler/StreamSalvage.cpp -----------------------------------------===//

#include "profiler/StreamSalvage.h"

#include "profiler/LegacyStream.h"
#include "support/Format.h"

#include <cstring>
#include <filesystem>
#include <optional>

using namespace jdrag;
using namespace jdrag::profiler;

std::uint64_t SalvageReport::chunksOk() const {
  std::uint64_t N = 0;
  for (const ChunkVerdict &V : Chunks)
    N += V.ok();
  return N;
}

std::uint64_t SalvageReport::chunksDamaged() const {
  return Chunks.size() - chunksOk();
}

std::string SalvageReport::summary(const std::string &Path) const {
  if (!readable())
    return Path + ": " + FileError + "\n";
  std::string Out = formatString(
      "%s: jdev v%u, %llu bytes, %zu chunks: %llu ok, %llu damaged\n",
      Path.c_str(), Version, static_cast<unsigned long long>(FileBytes),
      Chunks.size(), static_cast<unsigned long long>(chunksOk()),
      static_cast<unsigned long long>(chunksDamaged()));
  if (Sampling.enabled())
    Out += formatString(
        "sampling: interval %llu bytes, seed 0x%llx (estimates are "
        "inverse-probability scaled)\n",
        static_cast<unsigned long long>(Sampling.SampleBytes),
        static_cast<unsigned long long>(Sampling.SampleSeed));
  else
    Out += "sampling: exact (every allocation recorded)\n";
  if (Compressed) {
    double Ratio = WirePayloadBytes
                       ? static_cast<double>(RawPayloadBytes) /
                             static_cast<double>(WirePayloadBytes)
                       : 1.0;
    Out += formatString(
        "compression: %llu bytes on disk <- %llu uncompressed "
        "(%.2fx ratio)\n",
        static_cast<unsigned long long>(WirePayloadBytes),
        static_cast<unsigned long long>(RawPayloadBytes), Ratio);
  }
  for (const ChunkVerdict &V : Chunks)
    if (!V.ok())
      Out += formatString(
          "  chunk %u @ offset %llu: %s (%u-byte payload)\n", V.Seq,
          static_cast<unsigned long long>(V.Offset),
          chunkStatusName(V.Status), V.PayloadBytes);
  if (FooterPresent)
    Out += formatString("chunk index footer: %s\n",
                        FooterOk ? "ok" : "DAMAGED (readers rebuild the "
                                          "index; salvage re-emits one)");
  Out += formatString(
      "recoverable prefix: %llu events, %llu payload bytes%s\n",
      static_cast<unsigned long long>(EventsRecovered),
      static_cast<unsigned long long>(BytesRecovered),
      TailPartialRecord ? " (partial trailing record dropped)" : "");
  return Out;
}

namespace {

/// Byte-wise search for the next chunk magic at or after \p From.
std::size_t findMagic(std::span<const std::byte> Bytes, std::size_t From) {
  std::uint32_t M = ChunkMagic;
  std::byte Pat[sizeof(M)];
  std::memcpy(Pat, &M, sizeof(M));
  for (std::size_t I = From; I + sizeof(M) <= Bytes.size(); ++I)
    if (std::memcmp(Bytes.data() + I, Pat, sizeof(M)) == 0)
      return I;
  return SalvageReport::npos;
}

class NullConsumer : public EventConsumer {
public:
  void onSite(SiteId, std::span<const SiteFrame>) override {}
  void onEvent(const EventRecord &) override {}
};

/// Re-encodes the recovered prefix through a fresh EventBuffer; site
/// ids pass through unchanged, so the salvaged recording replays with
/// the producer's original ids.
class ReencodeConsumer : public EventConsumer {
public:
  explicit ReencodeConsumer(EventBuffer &Buf) : Buf(Buf) {}
  void onSite(SiteId Id, std::span<const SiteFrame> Frames) override {
    Buf.writeSite(Id, Frames);
  }
  void onEvent(const EventRecord &E) override { Buf.writeEvent(E); }

private:
  EventBuffer &Buf;
};

} // namespace

SalvageReport jdrag::profiler::scanEventFile(const std::string &Path,
                                             EventConsumer *C) {
  SalvageReport Rep;
  std::vector<std::byte> Bytes;
  if (!readWholeFile(Path, Bytes)) {
    Rep.FileError = "cannot read file";
    return Rep;
  }
  Rep.FileBytes = Bytes.size();

  StreamHeaderInfo Hdr;
  if (!parseStreamHeader(Bytes, Hdr, &Rep.FileError))
    return Rep;
  WireFormat Format = Hdr.Format;
  Rep.Version = static_cast<std::uint32_t>(Format);
  Rep.Sampling = Hdr.Sampling;
  std::size_t FileHeaderBytes = streamHeaderBytes(Format);

  // A legacy file's records go to LegacyStream's record layer, a v8
  // file's to the record loop, chunk by chunk.
  NullConsumer Discard;
  EventConsumer &Out = C ? *C : Discard;
  StreamDecoder Records(Out);
  std::optional<LegacyRecordLayer> Legacy;
  if (legacyFormat(Format))
    Legacy.emplace(Format, Out);

  // A v4+ file may end with a chunk index footer block: judge it
  // separately (it is an index, not data) and stop the chunk walk
  // where it starts.
  std::size_t ScanEnd = Bytes.size();
  if (!Legacy || Legacy->footers()) {
    auto Framed = std::span<const std::byte>(Bytes).subspan(FileHeaderBytes);
    if (std::size_t FB = footerBlockSize(Framed)) {
      Rep.FooterPresent = true;
      ChunkIndex Idx;
      Rep.FooterOk = readChunkIndexFooter(Framed, Idx);
      ScanEnd = Bytes.size() - FB;
    }
  }

  std::size_t Off = FileHeaderBytes;
  std::uint32_t ExpectedSeq = 0;
  bool Damaged = false;
  std::vector<std::uint8_t> Inflate; // decompression scratch

  auto judge = [&](ChunkVerdict V) {
    if (!V.ok() && Rep.FirstDamaged == SalvageReport::npos)
      Rep.FirstDamaged = Rep.Chunks.size();
    Rep.Chunks.push_back(V);
    Damaged |= !V.ok();
  };

  while (Off < ScanEnd) {
    ChunkFrame Fr = readFrame(
        std::span<const std::byte>(Bytes).subspan(Off, ScanEnd - Off), Format);
    // A footer frame inside the data region is no chunk: its magic is
    // as wrong as any other.
    ChunkStatus S = Fr.Footer ? ChunkStatus::BadMagic : Fr.Status;
    bool Resync =
        S == ChunkStatus::BadMagic || S == ChunkStatus::OversizedPayload;
    if (!Resync && S != ChunkStatus::TruncatedHeader && !Damaged &&
        Fr.H.Seq != ExpectedSeq) {
      // Only meaningful before the first damage; after a resync the
      // sequence is whatever the surviving chunks say.
      S = ChunkStatus::BadSequence;
    } else if (S == ChunkStatus::Ok) {
      FramePayload P = verifyPayload(Fr, Inflate);
      S = P.Status;
      if (S == ChunkStatus::Ok) {
        Rep.Compressed |= Fr.Compressed;
        Rep.WirePayloadBytes += Fr.PayloadBytes;
        Rep.RawPayloadBytes += P.Body.size();
        if (!Damaged &&
            !(Legacy ? Legacy->chunk(P.Body)
                     : Records.decodeChunk(P.Body.data(), P.Body.size()))) {
          // A malformed record, or one the chunk's end cuts off: the
          // producer (or the bytes) lied.
          S = ChunkStatus::BadRecords;
        }
      }
      // Valid chunks after damage are judged but not replayed: a
      // missing site definition poisons them.
    }
    judge({Off, Fr.H.Seq, Fr.PayloadBytes, S});
    // Nothing beyond EOF to resynchronize on.
    if (S == ChunkStatus::TruncatedHeader ||
        S == ChunkStatus::TruncatedPayload)
      break;

    if (Resync) {
      // The header itself is untrustworthy; hunt for the next magic.
      std::size_t Next = findMagic(Bytes, Off + 1);
      if (Next == SalvageReport::npos)
        break;
      Off = Next;
    } else {
      Off += Fr.Extent;
      ExpectedSeq = Fr.H.Seq + 1;
    }
  }

  if (!Legacy) {
    Rep.EventsRecovered = Records.eventsDecoded();
    Rep.BytesRecovered = Records.bytesDecoded();
    Rep.TailPartialRecord = Records.recordCut();
    return Rep;
  }
  LegacyRecords R = Legacy->finish();
  Rep.EventsRecovered = R.Events;
  Rep.BytesRecovered = R.Bytes;
  Rep.TailPartialRecord = R.Cut;
  if (R.Malformed) {
    // The v2/v3 chunk the malformed record starts in is the first
    // damage: the prefix is Rep.Chunks[0..]. (A v4-v6 chunk was judged
    // in the walk.)
    Rep.FirstDamaged = R.Chunk;
    Rep.Chunks[R.Chunk].Status = ChunkStatus::BadRecords;
  }
  return Rep;
}

bool jdrag::profiler::salvageEventFile(const std::string &In,
                                       const std::string &Out,
                                       SalvageReport *Rep,
                                       std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };

  // First pass judges readability without touching the output path.
  SalvageReport Probe = scanEventFile(In, nullptr);
  if (Rep)
    *Rep = Probe;
  if (!Probe.readable())
    return Fail(In + ": " + Probe.FileError);
  // Opening the output truncates it: were it the input (the same path,
  // a hard link, a symlink), the re-encode pass would read an empty
  // file and the recording would be lost.
  std::error_code EC;
  if (std::filesystem::equivalent(In, Out, EC))
    return Fail("cannot write " + Out + ": it is the input " + In);

  FileEventSink Sink;
  FileEventSink::Options FO;
  // A sampled input stays sampled and a compressed input stays
  // compressed: the v8 output header carries the sampling params so
  // replay still scales, and the recovered recording keeps its space
  // savings.
  FO.Sampling = Probe.Sampling;
  FO.Compress = Probe.Compressed;
  if (!Sink.open(Out, FO))
    return Fail("cannot write " + Out);
  EventBuffer Buf(Sink);
  ReencodeConsumer Re(Buf);
  scanEventFile(In, &Re);
  // finishStream() appends the chunk index footer: salvage output is
  // always current-format, so a recovered recording is also seekable.
  Buf.finishStream();
  if (!Buf.ok() || !Sink.finish())
    return Fail("cannot write " + Out);
  return true;
}
