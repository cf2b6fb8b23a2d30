//===- profiler/LegacyStream.cpp ------------------------------------------===//

#include "profiler/LegacyStream.h"

#include <cstring>
#include <vector>

using namespace jdrag;
using namespace jdrag::profiler;

namespace {

/// v2: every record is a fixed 40-byte EventRecord, and a DefineSite is
/// followed by its FrameCount 12-byte WireFrames.
LegacyRecords decodeV2(std::span<const std::byte> Records, EventConsumer &C) {
  LegacyRecords R;
  std::vector<SiteFrame> Frames;
  auto Malformed = [&](std::string Msg) {
    R.Malformed = true;
    R.Error = "malformed event stream: " + std::move(Msg);
    return R;
  };
  while (R.Bytes != Records.size()) {
    const std::byte *P = Records.data() + R.Bytes;
    std::size_t Avail = Records.size() - R.Bytes;
    if (Avail < sizeof(EventRecord)) {
      R.Cut = true;
      break;
    }
    EventRecord E;
    std::memcpy(&E, P, sizeof(E));
    if (E.Kind >= NumEventKinds)
      return Malformed("unknown event kind " + std::to_string(E.Kind));
    std::size_t Len = sizeof(EventRecord);
    if (E.kind() == EventKind::DefineSite) {
      if (E.Arg0 > MaxWireFrames)
        return Malformed("site with " + std::to_string(E.Arg0) + " frames");
      Len += static_cast<std::size_t>(E.Arg0) * sizeof(WireFrame);
      if (Avail < Len) {
        R.Cut = true;
        break;
      }
      Frames.clear();
      for (std::uint64_t I = 0; I != E.Arg0; ++I) {
        WireFrame W;
        std::memcpy(&W, P + sizeof(EventRecord) + I * sizeof(WireFrame),
                    sizeof(W));
        Frames.push_back({ir::MethodId(W.Method), W.Pc, W.Line});
      }
      if (const ir::Program *P = C.siteProgram()) {
        std::string Misfit = siteMisfit(*P, E.Site, Frames);
        if (!Misfit.empty()) {
          R.Malformed = true;
          R.Error = std::move(Misfit);
          return R;
        }
      }
      C.onSite(E.Site, Frames);
    } else {
      C.onEvent(E);
    }
    R.Bytes += Len;
    ++R.Events;
  }
  return R;
}

} // namespace

LegacyRecords
jdrag::profiler::decodeLegacyRecords(std::span<const std::byte> Records,
                                     WireFormat F, EventConsumer &C) {
  if (F == WireFormat::V2)
    return decodeV2(Records, C);
  // v3 chains its time deltas from zero across the whole stream, so the
  // joined payload is one self-contained chunk body.
  StreamDecoder D(C, F);
  LegacyRecords R;
  bool Ok = D.decodeChunk(Records.data(), Records.size());
  R.Events = D.eventsDecoded();
  R.Bytes = D.bytesDecoded();
  R.Cut = D.recordCut();
  R.Malformed = !Ok && !R.Cut;
  if (R.Malformed)
    R.Error = D.error();
  return R;
}

LegacyStatus jdrag::profiler::replayLegacyStream(
    std::span<const std::byte> Framed, WireFormat F, EventConsumer &C,
    std::string &Err) {
  auto Corrupt = [&](std::string Msg) {
    Err = "corrupt event stream: " + std::move(Msg);
    return LegacyStatus::Corrupt;
  };
  std::vector<std::byte> Joined;
  Joined.reserve(Framed.size());
  std::vector<std::uint8_t> Unused; // v2/v3 payloads are never compressed
  std::size_t Off = 0;
  for (std::uint32_t Seq = 0; Off != Framed.size(); ++Seq) {
    ChunkFrame Fr = readFrame(Framed.subspan(Off), F);
    if (Fr.Status == ChunkStatus::TruncatedHeader)
      return LegacyStatus::Truncated;
    // Nor do they have a footer.
    if (Fr.Footer || Fr.Status == ChunkStatus::BadMagic)
      return Corrupt("bad chunk magic at chunk " + std::to_string(Seq));
    if (Fr.Status == ChunkStatus::OversizedPayload)
      return Corrupt("chunk " + std::to_string(Seq) +
                     " has implausible payload length " +
                     std::to_string(Fr.H.PayloadBytes));
    if (Fr.H.Seq != Seq)
      return Corrupt("chunk sequence jumped from " + std::to_string(Seq) +
                     " to " + std::to_string(Fr.H.Seq) +
                     " (dropped or reordered chunks)");
    if (Fr.Status == ChunkStatus::TruncatedPayload)
      return LegacyStatus::Truncated;
    FramePayload P = verifyPayload(Fr, Unused);
    if (P.Status != ChunkStatus::Ok)
      return Corrupt("chunk " + std::to_string(Seq) +
                     " CRC mismatch (stored " + std::to_string(Fr.H.Crc) +
                     ", computed " + std::to_string(P.Crc) + ")");
    Joined.insert(Joined.end(), P.Body.begin(), P.Body.end());
    Off += Fr.Extent;
  }
  LegacyRecords R = decodeLegacyRecords(Joined, F, C);
  if (R.Malformed) {
    Err = R.Error;
    return LegacyStatus::Corrupt;
  }
  return R.Cut ? LegacyStatus::Truncated : LegacyStatus::Ok;
}
