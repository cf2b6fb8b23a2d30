//===- profiler/EventStream.cpp -------------------------------------------===//

#include "profiler/EventStream.h"

#include "profiler/LegacyStream.h"
#include "support/Crc32c.h"
#include "support/Lz.h"

#include <cassert>
#include <chrono>
#include <cstring>
#include <iterator>
#include <thread>

#include <sys/stat.h>
#ifndef _WIN32
#include <unistd.h>
#endif

using namespace jdrag;
using namespace jdrag::profiler;
using namespace jdrag::profiler::wire;

EventSink::~EventSink() = default;
EventConsumer::~EventConsumer() = default;

std::uint32_t jdrag::profiler::backoffDelayMicros(const BackoffPolicy &P,
                                                  std::uint32_t Attempt,
                                                  std::uint32_t Salt) {
  std::uint32_t Shift = Attempt < P.MaxDelayShift ? Attempt : P.MaxDelayShift;
  std::uint32_t Delay = P.BaseDelayMicros << Shift;
  if (P.Jitter && Delay > 1) {
    // Deterministic (seedless) jitter: a Weyl-style hash of the salt
    // spreads a fleet of clients across [Delay/2, Delay] without
    // consulting a clock or RNG, keeping retry schedules reproducible.
    std::uint32_t H = (Salt + 1) * 2654435761u;
    Delay -= H % (Delay / 2 + 1);
  }
  return Delay;
}

namespace {
constexpr const char *EventKindNames[] = {
    "define-site", "alloc",   "use",      "gc-end",
    "deep-gc-end", "collect", "survivor", "terminate",
};
static_assert(std::size(EventKindNames) == NumEventKinds,
              "name every EventKind");

// .jdev header: 8-byte StreamFileMagic, u32 version, u32 reserved.
constexpr std::uint64_t StreamMagic = StreamFileMagic;

//===----------------------------------------------------------------------===//
// Varint encoding (the readers and wire constants are in RecordLoop.h)
//===----------------------------------------------------------------------===//

/// Appends V as a LEB128 varint; returns bytes written (<= 10).
inline std::size_t putUvar(std::uint8_t *P, std::uint64_t V) {
  std::size_t N = 0;
  do {
    std::uint8_t B = V & 0x7F;
    V >>= 7;
    if (V)
      B |= 0x80;
    P[N++] = B;
  } while (V);
  return N;
}

inline std::size_t putSvar(std::uint8_t *P, std::int64_t V) {
  return putUvar(P, zigzagEncode(V));
}

/// The +1 site bias, in u32 arithmetic so InvalidSite wraps to 0.
inline std::uint64_t biasSite(SiteId S) {
  return static_cast<std::uint32_t>(S + 1);
}

/// The footer's on-wire per-chunk entry (48 bytes, native-endian like
/// the rest of the stream).
struct WireIndexEntry {
  std::uint64_t Offset;
  std::uint32_t Seq;
  std::uint32_t PayloadBytes;
  std::uint32_t Crc;
  std::uint32_t RecordCount;
  std::uint64_t FirstTime;
  std::uint64_t LastTime;
  std::uint64_t FirstRecord;
};
static_assert(sizeof(WireIndexEntry) == 48, "footer wire format");
static_assert(std::is_trivially_copyable_v<WireIndexEntry>);

/// The footer's shape: a u64 record total, then one entry per chunk,
/// as many as its header's Seq says.
bool footerShaped(const ChunkHeader &H) {
  return H.PayloadBytes == 8 + std::uint64_t(H.Seq) * sizeof(WireIndexEntry);
}

} // namespace

const char *jdrag::profiler::eventKindName(EventKind K) {
  auto I = static_cast<std::size_t>(K);
  return I < NumEventKinds ? EventKindNames[I] : "?";
}

//===----------------------------------------------------------------------===//
// Chunk-frame verifier
//===----------------------------------------------------------------------===//

namespace {
constexpr const char *ChunkStatusNames[] = {
    "ok",           "truncated-header",  "truncated-payload",
    "bad-magic",    "bad-sequence",      "oversized-payload",
    "crc-mismatch", "bad-records",       "bad-compression",
};
static_assert(std::size(ChunkStatusNames) ==
                  static_cast<std::size_t>(ChunkStatus::BadCompression) + 1,
              "name every ChunkStatus");

/// A footer block ends in a u32 block size and a u32 FooterTailMagic.
constexpr std::size_t FooterTailBytes = 8;
} // namespace

const char *jdrag::profiler::chunkStatusName(ChunkStatus S) {
  auto I = static_cast<std::size_t>(S);
  return I < std::size(ChunkStatusNames) ? ChunkStatusNames[I] : "?";
}

ChunkFrame jdrag::profiler::readFrame(std::span<const std::byte> Bytes,
                                      WireFormat F) {
  ChunkFrame Fr;
  Fr.Data = Bytes.data();
  if (Bytes.size() < sizeof(ChunkHeader))
    return Fr;
  std::memcpy(&Fr.H, Bytes.data(), sizeof(Fr.H));
  Fr.Footer = Fr.H.Magic == FooterMagic;
  // Before v6 the raw field is the length, so a flagged frame fails the
  // bound below: the intended clean refusal of old readers.
  bool Flags = !Fr.Footer && F >= WireFormat::V6;
  Fr.Compressed = Flags && chunkCompressed(Fr.H.PayloadBytes);
  Fr.PayloadBytes =
      Flags ? chunkWireBytes(Fr.H.PayloadBytes) : Fr.H.PayloadBytes;
  if (!Fr.Footer && Fr.H.Magic != ChunkMagic)
    Fr.Status = ChunkStatus::BadMagic;
  else if (Fr.PayloadBytes > MaxChunkPayload ||
           (!Fr.Footer && Fr.PayloadBytes == 0))
    Fr.Status = ChunkStatus::OversizedPayload;
  else {
    Fr.Extent = sizeof(ChunkHeader) + Fr.PayloadBytes +
                (Fr.Footer ? FooterTailBytes : 0);
    Fr.Status = Bytes.size() < Fr.Extent ? ChunkStatus::TruncatedPayload
                                         : ChunkStatus::Ok;
  }
  return Fr;
}

bool jdrag::profiler::chunkPayloadBytes(const ChunkHeader &H,
                                        const std::byte *Payload,
                                        std::vector<std::uint8_t> &Scratch,
                                        std::span<const std::byte> &Out) {
  std::uint32_t Wire = chunkWireBytes(H.PayloadBytes);
  if (!chunkCompressed(H.PayloadBytes)) {
    Out = {Payload, Wire};
    return true;
  }
  if (!support::lzDecompress(Payload, Wire, Scratch, MaxChunkPayload))
    return false;
  Out = {reinterpret_cast<const std::byte *>(Scratch.data()),
         Scratch.size()};
  return true;
}

FramePayload
jdrag::profiler::verifyPayload(const ChunkFrame &Fr,
                               std::vector<std::uint8_t> &Scratch) {
  assert(Fr.Status == ChunkStatus::Ok && "verify only a whole frame");
  FramePayload P;
  P.Body = {Fr.payload(), Fr.PayloadBytes};
  // Decompress before the CRC: it covers the *uncompressed* payload, so
  // a garbled block surfaces either here (token stream broken) or as a
  // CRC mismatch (tokens decode to wrong bytes).
  if (Fr.Compressed &&
      !chunkPayloadBytes(Fr.H, Fr.payload(), Scratch, P.Body)) {
    P.Status = ChunkStatus::BadCompression;
    P.Body = {};
    return P;
  }
  P.Crc = support::crc32c(P.Body.data(), P.Body.size());
  bool Intact = P.Crc == Fr.H.Crc;
  if (Fr.Footer) {
    // The footer rule: whole entries, one per H.Seq, and a tail that
    // repeats the extent.
    std::uint32_t Bytes = 0, Tail = 0;
    std::memcpy(&Bytes, Fr.payload() + Fr.PayloadBytes, 4);
    std::memcpy(&Tail, Fr.payload() + Fr.PayloadBytes + 4, 4);
    Intact = Intact && footerShaped(Fr.H) && Tail == FooterTailMagic &&
             Bytes == Fr.Extent;
  }
  if (!Intact)
    P.Status = ChunkStatus::BadCrc;
  return P;
}

std::size_t
jdrag::profiler::footerBlockSize(std::span<const std::byte> Stream) {
  // The smallest block: a header, the u64 record total and the tail.
  constexpr std::size_t MinBlock = sizeof(ChunkHeader) + 8 + FooterTailBytes;
  if (Stream.size() < MinBlock)
    return 0;
  std::uint32_t Bytes = 0, Tail = 0;
  std::memcpy(&Bytes, Stream.data() + Stream.size() - 8, 4);
  std::memcpy(&Tail, Stream.data() + Stream.size() - 4, 4);
  if (Tail != FooterTailMagic || Bytes < MinBlock || Bytes > Stream.size())
    return 0;
  // A footer frame reads alike in every format.
  ChunkFrame Fr = readFrame(Stream.last(Bytes));
  return Fr.Footer && Fr.Status == ChunkStatus::Ok && Fr.Extent == Bytes
             ? Bytes
             : 0;
}

//===----------------------------------------------------------------------===//
// Chunk compression (v6+)
//===----------------------------------------------------------------------===//

std::span<const std::byte>
ChunkCompressor::transform(const std::byte *Data, std::size_t Size) {
  ChunkFrame Fr = readFrame({Data, Size});
  if (Fr.Status != ChunkStatus::Ok || Fr.Extent != Size)
    return {};
  ChunkHeader H = Fr.H;

  if (Fr.Footer) {
    // The footer frame itself stays uncompressed (it is small, and
    // salvage resynchronizes on its magic), but its entries must index
    // the stream this compressor actually produced: rewrite Offset and
    // PayloadBytes from the per-chunk wire records, recompute the
    // payload CRC, and leave everything else (Seq = entry count, times,
    // per-chunk payload CRCs over the *uncompressed* bytes) alone.
    if (!footerShaped(H))
      return {};
    Scratch.assign(Data, Data + Size);
    std::byte *Body = Scratch.data() + sizeof(ChunkHeader);
    std::size_t Wi = 0;
    for (std::size_t I = 0; I != H.Seq; ++I) {
      WireIndexEntry W;
      std::memcpy(&W, Body + 8 + I * sizeof(W), sizeof(W));
      // Both lists are in ascending Seq order; entries for chunks this
      // compressor never saw (shed upstream, pre-spool) keep their
      // producer values -- readers catch the mismatch and rebuild.
      while (Wi < Wire.size() && Wire[Wi].Seq < W.Seq)
        ++Wi;
      if (Wi < Wire.size() && Wire[Wi].Seq == W.Seq) {
        W.Offset = Wire[Wi].Offset;
        W.PayloadBytes = Wire[Wi].Field;
        std::memcpy(Body + 8 + I * sizeof(W), &W, sizeof(W));
      }
    }
    H.Crc = support::crc32c(Body, H.PayloadBytes);
    std::memcpy(Scratch.data(), &H, sizeof(H));
    Offset += Size;
    return Scratch;
  }

  // Already-compressed input (a pre-compressed frame passing through,
  // e.g. a spool being re-sunk) is forwarded verbatim.
  std::uint32_t NewField = H.PayloadBytes;
  std::span<const std::byte> Frame(Data, Size);
  RawBytes += Fr.PayloadBytes;
  if (!Fr.Compressed) {
    Lz = support::lzCompress(Fr.payload(), Fr.PayloadBytes);
    if (!Lz.empty()) {
      // lzCompress only returns a block strictly smaller than the
      // input, so the flag bit never collides with the length bits.
      NewField = static_cast<std::uint32_t>(Lz.size()) | ChunkCompressedBit;
      Scratch.resize(sizeof(ChunkHeader) + Lz.size());
      ChunkHeader NH = H;
      NH.PayloadBytes = NewField;
      std::memcpy(Scratch.data(), &NH, sizeof(NH));
      std::memcpy(Scratch.data() + sizeof(NH), Lz.data(), Lz.size());
      Frame = Scratch;
    }
  }
  Wire.push_back({H.Seq, Offset, NewField});
  WireBytes += Frame.size() - sizeof(ChunkHeader);
  Offset += Frame.size();
  return Frame;
}

//===----------------------------------------------------------------------===//
// FileEventSink
//===----------------------------------------------------------------------===//

FileEventSink::~FileEventSink() {
  if (F)
    std::fclose(F);
}

bool FileEventSink::open(const std::string &Path, Options O) {
  if (F)
    return false; // double-open: reject; the first stream stays usable
  if (legacyFormat(O.Format)) {
    LastErr = EINVAL; // nothing writes a legacy format
    return Ok = false;
  }
  Opt = O;
  F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    LastErr = errno;
    return Ok = false;
  }
  // The v8 header: magic, version, a reserved u32, the sampling params.
  std::byte Header[streamHeaderBytes(DefaultWireFormat)] = {};
  std::uint32_t Version = static_cast<std::uint32_t>(DefaultWireFormat);
  std::memcpy(Header, &StreamMagic, 8);
  std::memcpy(Header + 8, &Version, 4);
  std::memcpy(Header + 16, &Opt.Sampling.SampleBytes, 8);
  std::memcpy(Header + 24, &Opt.Sampling.SampleSeed, 8);
  Ok = std::fwrite(Header, 1, sizeof(Header), F) == sizeof(Header);
  if (!Ok)
    LastErr = errno;
  if (Ok && Opt.Compress)
    Comp = std::make_unique<ChunkCompressor>();
  return Ok;
}

std::size_t FileEventSink::rawWrite(const std::byte *Data, std::size_t Size) {
  return std::fwrite(Data, 1, Size, F);
}

bool FileEventSink::durableFlush() {
  if (std::fflush(F) != 0) {
    LastErr = errno;
    return false;
  }
#ifndef _WIN32
  if (fsync(fileno(F)) != 0) {
    LastErr = errno;
    return false;
  }
#endif
  return true;
}

bool FileEventSink::writeChunk(const std::byte *Data, std::size_t Size) {
  if (!F || !Ok)
    return false;
  if (Comp) {
    // Compress here, not in EventBuffer::flush: under AsyncEventSink
    // this runs on the background writer thread, keeping the transform
    // off the VM's critical path.
    std::span<const std::byte> T = Comp->transform(Data, Size);
    if (T.empty()) {
      LastErr = EINVAL; // structurally invalid frame; never expected
      return Ok = false;
    }
    return writeFrame(T.data(), T.size());
  }
  return writeFrame(Data, Size);
}

bool FileEventSink::writeFrame(const std::byte *Data, std::size_t Size) {
  std::size_t Off = 0;
  std::uint32_t Attempts = 0;
  while (Off < Size) {
    errno = 0;
    std::size_t N = rawWrite(Data + Off, Size - Off);
    Off += N;
    if (Off == Size)
      break;
    int E = errno;
    LastErr = E;
    // A short write that made progress is always worth continuing;
    // EINTR/EAGAIN without progress is transient up to the retry
    // budget. Anything else (ENOSPC, EIO) is fatal for this sink.
    bool Transient = N > 0 || E == EINTR || E == EAGAIN || E == EWOULDBLOCK;
    if (N > 0) {
      Attempts = 0;
      continue;
    }
    if (!Transient || Attempts >= Opt.Backoff.MaxRetries)
      return Ok = false;
    ++Attempts;
    ++Retries;
    std::clearerr(F);
    // Exponential backoff, capped well under human-visible latency.
    std::this_thread::sleep_for(std::chrono::microseconds(
        backoffDelayMicros(Opt.Backoff, Attempts, Retries)));
  }
  Bytes += Size;
  ++Chunks;
  if (Opt.FsyncEveryChunks && Chunks % Opt.FsyncEveryChunks == 0 &&
      !durableFlush())
    return Ok = false;
  return true;
}

bool FileEventSink::finish() {
  if (!F)
    return Ok;
  if (Ok && !durableFlush())
    Ok = false;
  std::fclose(F);
  F = nullptr;
  return Ok;
}

//===----------------------------------------------------------------------===//
// EventBuffer
//===----------------------------------------------------------------------===//

EventBuffer::EventBuffer(EventSink &Sink, std::size_t ChunkBytes,
                         bool Checksum, [[maybe_unused]] WireFormat Format)
    : Sink(Sink), ChunkBytes(ChunkBytes ? ChunkBytes : DefaultChunkBytes),
      Checksum(Checksum) {
  assert(Format == DefaultWireFormat && "only v8 is written");
  Chunk.reserve(sizeof(ChunkHeader) + this->ChunkBytes);
  beginChunk();
}

void EventBuffer::beginChunk() {
  Chunk.clear();
  Chunk.resize(sizeof(ChunkHeader)); // placeholder, filled at flush
  // Every chunk is self-contained: the delta chains restart, so the
  // first timed record carries its absolute time, the first
  // id-carrying record its absolute id and the first trailer its
  // absolute alloc time and deep-GC boundary.
  Chains = DeltaChains();
  ChunkRecords = 0;
  ChunkHasTime = false;
  ChunkFirstTime = ChunkLastTime = 0;
  ChunkFirstRecord = Events;
}

std::size_t EventBuffer::encodeTimed(const EventRecord &E, std::uint8_t *Buf,
                                     DeltaChains &Ch) {
  std::size_t N = 0;
  std::uint8_t Tag = E.Kind;
  // Every timed record carries a zigzag delta against the previous one,
  // and every id a zigzag delta against the chunk's previous id (mod
  // 2^64, so any id sequence round-trips); so do a trailer's alloc time
  // and boundaries, each against its own chain.
  std::int64_t Delta = static_cast<std::int64_t>(E.Time - Ch.Time);
  Ch.Time = E.Time;
  auto PutChained = [&](std::uint64_t V, std::uint64_t &Last) {
    N += putSvar(Buf + N, static_cast<std::int64_t>(V - Last));
    Last = V;
  };

  switch (E.kind()) {
  case EventKind::GCEnd:
    Buf[N++] = Tag;
    N += putSvar(Buf + N, Delta);
    N += putUvar(Buf + N, E.Arg0);
    N += putUvar(Buf + N, E.Arg1);
    break;
  case EventKind::Collect:
  case EventKind::Survivor: {
    bool OutsideInit = E.Flags & RecordUsedOutsideInit;
    Tag |= (E.Flags & RecordIsArray) ? TrailerIsArrayBit : 0;
    Tag |= static_cast<std::uint8_t>((E.Sub & TrailerKindMask)
                                     << TrailerKindShift);
    Tag |= OutsideInit ? TrailerOutsideInitBit : 0;
    Buf[N++] = Tag;
    N += putSvar(Buf + N, Delta);
    PutChained(E.Id, Ch.Id);
    N += putUvar(Buf + N, E.Arg0);
    N += putUvar(Buf + N, static_cast<std::uint32_t>(E.Arg1 + 1));
    N += putUvar(Buf + N, biasSite(E.Site));
    PutChained(E.AllocTime, Ch.Alloc);
    N += putUvar(Buf + N, E.UseCount);
    N += putUvar(Buf + N, biasSite(E.LastUseSite));
    if (E.UseCount) {
      N += putSvar(Buf + N,
                   static_cast<std::int64_t>(E.LastUseTime - E.AllocTime));
      PutChained(E.LastUseBoundary, Ch.Boundary);
    }
    if (OutsideInit) {
      N += putSvar(Buf + N,
                   static_cast<std::int64_t>(E.FirstUseTime - E.AllocTime));
      PutChained(E.FirstUseBoundary, Ch.Boundary);
    }
    break;
  }
  case EventKind::DeepGCEnd:
  case EventKind::Terminate:
    Buf[N++] = Tag;
    N += putSvar(Buf + N, Delta);
    break;
  case EventKind::Alloc:
  case EventKind::Use:
  case EventKind::DefineSite:
    break; // not timed v8 records; writeEvent never passes them
  }
  return N;
}

void EventBuffer::writeEvent(const EventRecord &E) {
  switch (E.kind()) {
  case EventKind::DefineSite:
    // DefineSite goes through writeSite(); never encoded here.
    ++Events;
    return;
  case EventKind::Alloc:
  case EventKind::Use:
    // v8 has no Alloc or Use record: the object's Collect/Survivor
    // carries what they said.
    assert(false && "v8 has no Alloc or Use record");
    return;
  default:
    break;
  }
  std::uint8_t Buf[MaxTimedRecordBytes];
  DeltaChains Next = Chains;
  std::size_t N = encodeTimed(E, Buf, Next);
  // Chunks stay record-aligned, and the deltas depend on which chunk
  // the record lands in (the chains restart per chunk): a record that
  // does not fit the rest of the chunk starts the next one, encoded
  // again against its zero chains.
  if (Chunk.size() > sizeof(ChunkHeader) &&
      Chunk.size() + N > sizeof(ChunkHeader) + ChunkBytes) {
    flush();
    Next = Chains;
    N = encodeTimed(E, Buf, Next);
  }
  Chains = Next;
  appendRecord(Buf, N, /*Timed=*/true, E.Time);
  ++Events;
}

void EventBuffer::writeSite(SiteId Id, std::span<const SiteFrame> Frames) {
  // DefineSite is untimed (Time is always 0) and does NOT participate in
  // the time-delta chain: sites intern lazily, so their position in the
  // stream is not meaningful to the clock. The record is staged whole so
  // it lands in exactly one chunk.
  SiteScratch.clear();
  auto Put = [&](const std::uint8_t *P, std::size_t N) {
    SiteScratch.insert(SiteScratch.end(),
                       reinterpret_cast<const std::byte *>(P),
                       reinterpret_cast<const std::byte *>(P) + N);
  };
  std::uint8_t Buf[1 + 2 * MaxVarintBytes];
  std::size_t N = 0;
  Buf[N++] = static_cast<std::uint8_t>(EventKind::DefineSite);
  N += putUvar(Buf + N, Id);
  N += putUvar(Buf + N, Frames.size());
  Put(Buf, N);
  for (const SiteFrame &F : Frames) {
    std::uint8_t FB[3 * MaxVarintBytes];
    std::size_t FN = 0;
    FN += putUvar(FB + FN, F.Method.Index);
    FN += putUvar(FB + FN, F.Pc);
    FN += putUvar(FB + FN, F.Line);
    Put(FB, FN);
  }
  appendRecord(SiteScratch.data(), SiteScratch.size(), /*Timed=*/false, 0);
  ++Events;
}

void EventBuffer::appendRecord(const void *Data, std::size_t Size, bool Timed,
                               ByteTime Time) {
  // Timed records already secured their room in writeEvent (their
  // deltas depend on the chunk); untimed site records are
  // placement-independent, so they flush-on-demand here.
  std::size_t Cap = sizeof(ChunkHeader) + ChunkBytes;
  if (!Timed && Chunk.size() > sizeof(ChunkHeader) &&
      Chunk.size() + Size > Cap)
    flush();
  if (ChunkRecords == 0)
    ChunkFirstRecord = Events; // Events is this record's global index
  ++ChunkRecords;
  if (Timed) {
    if (!ChunkHasTime) {
      ChunkHasTime = true;
      ChunkFirstTime = Time;
    }
    ChunkLastTime = Time;
  }
  const auto *Src = static_cast<const std::byte *>(Data);
  Chunk.insert(Chunk.end(), Src, Src + Size);
  // A record bigger than the budget gets an oversized chunk of its
  // own; either way the chunk ends at a record boundary.
  if (Chunk.size() >= Cap)
    flush();
}

bool EventBuffer::flush() {
  std::size_t Payload = Chunk.size() - sizeof(ChunkHeader);
  if (!Payload)
    return !SinkFailed;

  ChunkHeader H;
  H.Magic = ChunkMagic;
  H.Seq = NextSeq++;
  H.PayloadBytes = static_cast<std::uint32_t>(Payload);
  H.Crc = Checksum
              ? support::crc32c(Chunk.data() + sizeof(ChunkHeader), Payload)
              : 0;
  std::memcpy(Chunk.data(), &H, sizeof(H));

  bool Accepted =
      !SinkFailed && Sink.writeChunk(Chunk.data(), Chunk.size());
  if (Accepted) {
    ++Health.ChunksWritten;
    Health.BytesWritten += Chunk.size();
    ChunkIndexEntry E;
    E.Offset = StreamOffset;
    E.Seq = H.Seq;
    E.PayloadBytes = H.PayloadBytes;
    E.Crc = H.Crc;
    E.RecordCount = ChunkRecords;
    E.FirstTime = ChunkHasTime ? ChunkFirstTime : 0;
    E.LastTime = ChunkHasTime ? ChunkLastTime : 0;
    E.FirstRecord = ChunkFirstRecord;
    Index.push_back(E);
    StreamOffset += Chunk.size();
  } else {
    ++Health.ChunksDropped;
    Health.BytesDropped += Chunk.size();
    if (!SinkFailed) {
      SinkFailed = true;
      if (!Warned) {
        Warned = true;
        int E = Sink.lastErrno();
        std::fprintf(stderr,
                     "jdrag: warning: event-stream sink write failed%s%s; "
                     "continuing with drop accounting, the recording will "
                     "be incomplete\n",
                     E ? ": " : "", E ? std::strerror(E) : "");
      }
    }
  }
  beginChunk();
  return Accepted;
}

bool EventBuffer::finishStream() {
  bool FlushOk = flush();
  if (FooterWritten)
    return FlushOk;
  FooterWritten = true;
  // A footer asserts "these chunks are all in the stream, here" -- on a
  // stream that already lost chunks that would be a lie, so a damaged
  // stream simply ends footerless (readers rebuild the index; salvage
  // re-emits one).
  if (SinkFailed || !health().intact())
    return FlushOk;
  std::vector<std::byte> Footer = encodeChunkIndexFooter(Index, Events);
  bool Accepted = Sink.writeChunk(Footer.data(), Footer.size());
  if (Accepted) {
    ++Health.ChunksWritten;
    Health.BytesWritten += Footer.size();
  } else {
    ++Health.ChunksDropped;
    Health.BytesDropped += Footer.size();
    SinkFailed = true;
  }
  return FlushOk && Accepted;
}

StreamHealth EventBuffer::health() const {
  StreamHealth H = Health;
  H.Retries = Sink.retries();
  H.LastErrno = Sink.lastErrno();
  H.SpooledChunks = Sink.spooledChunks();
  H.SpooledBytes = Sink.spooledBytes();
  H.Failovers = Sink.failovers();
  // Chunks a sink accepted but later shed (async queue under drop
  // policy, background write failure) count as dropped end-to-end.
  H.ChunksDropped += Sink.droppedChunks();
  H.BytesDropped += Sink.droppedBytes();
  std::uint64_t DC = Sink.droppedChunks();
  std::uint64_t DB = Sink.droppedBytes();
  H.ChunksWritten -= DC < H.ChunksWritten ? DC : H.ChunksWritten;
  H.BytesWritten -= DB < H.BytesWritten ? DB : H.BytesWritten;
  return H;
}

//===----------------------------------------------------------------------===//
// StreamDecoder (record layer)
//===----------------------------------------------------------------------===//

bool StreamDecoder::fail(std::string Msg) {
  Failed = true;
  if (Error.empty())
    Error = std::move(Msg);
  return false;
}

std::size_t StreamDecoder::readSite(const std::byte *Data, std::size_t Size,
                                    std::size_t At, std::uint64_t Records,
                                    SiteId &Id) {
  std::uint8_t Tag = std::to_integer<std::uint8_t>(Data[At]);
  if (Tag & ~TagKindMask) {
    reject(At, Records, Verdict::SpareBits, EventKind::DefineSite);
    return 0;
  }
  VarReader R{Data + At + 1, Size - At - 1};
  Id = R.uvar32();
  std::uint64_t FrameCount = R.uvar();
  if (!R.Short && !R.Bad && FrameCount > MaxWireFrames) {
    Bytes += At;
    Events += Records;
    fail("malformed event stream: site with " + std::to_string(FrameCount) +
         " frames");
    return 0;
  }
  FrameScratch.clear();
  for (std::uint64_t I = 0; I != FrameCount && !R.Short && !R.Bad; ++I) {
    std::uint32_t Method = R.uvar32();
    std::uint32_t Pc = R.uvar32();
    std::uint32_t Line = R.uvar32();
    FrameScratch.push_back({ir::MethodId(Method), Pc, Line});
  }
  // Malformation wins over a cut: Bad never depends on the bytes past
  // the end of the body.
  if (R.Bad || R.Short) {
    reject(At, Records, R.Bad ? Verdict::BadVarint : Verdict::Cut,
           EventKind::DefineSite);
    return 0;
  }
  if (SiteProgram) {
    std::string Misfit = siteMisfit(*SiteProgram, Id, FrameScratch);
    if (!Misfit.empty()) {
      Bytes += At;
      Events += Records;
      fail(std::move(Misfit));
      return 0;
    }
  }
  return 1 + R.Off;
}

bool StreamDecoder::reject(std::size_t At, std::uint64_t Records, Verdict V,
                           EventKind Kind) {
  Bytes += At;
  Events += Records;
  const char *What = "";
  switch (V) {
  case Verdict::Cut:
    Cut = true;
    return fail("corrupt event stream: record straddles a chunk boundary "
                "in a self-contained chunk");
  case Verdict::SpareBits:
    What = "spare tag bits set on";
    break;
  case Verdict::UseKind7:
    What = "unknown use kind 7 in";
    break;
  case Verdict::LegacyKind:
    return fail(std::string("malformed event stream: ") +
                eventKindName(Kind) + " record in a v8 stream");
  case Verdict::AllocAfterEnd:
    What = "alloc time after the record's time in";
    break;
  case Verdict::UseBeforeAlloc:
    What = "use time before the alloc time in";
    break;
  case Verdict::UseAfterEnd:
    What = "use time after the record's time in";
    break;
  case Verdict::FirstAfterLast:
    What = "first use after the last use in";
    break;
  case Verdict::BoundaryAfterUse:
    What = "deep-GC boundary after its use in";
    break;
  case Verdict::UnusedWithSite:
    What = "last use on an unused object in";
    break;
  case Verdict::BadArrayKind:
    What = "array kind out of range in";
    break;
  case Verdict::BadVarint:
  case Verdict::Ok: // never rejected
    What = "bad varint in";
    break;
  }
  return fail(std::string("malformed event stream: ") + What + " " +
              eventKindName(Kind) + " record");
}

//===----------------------------------------------------------------------===//
// FrameDecoder (chunk layer)
//===----------------------------------------------------------------------===//

bool jdrag::profiler::judgeStreamFrame(const ChunkFrame &Fr, std::uint32_t Seq,
                                       bool FooterSeen, bool Footers,
                                       std::vector<std::uint8_t> &Scratch,
                                       FramePayload &P, std::string &Err) {
  auto Corrupt = [&](std::string Msg) {
    Err = "corrupt event stream: " + std::move(Msg);
    return false;
  };
  if (Fr.Status == ChunkStatus::TruncatedHeader)
    return true;
  if (Fr.Footer && Footers) {
    if (Fr.Status == ChunkStatus::OversizedPayload)
      return Corrupt("implausible chunk index footer length");
    if (Fr.H.Seq != Seq)
      return Corrupt("chunk index footer sequence mismatch");
    if (Fr.Status == ChunkStatus::Ok &&
        verifyPayload(Fr, Scratch).Status != ChunkStatus::Ok)
      return Corrupt("damaged chunk index footer");
    return true;
  }
  if (FooterSeen)
    return Corrupt("data after the chunk index footer");
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
  if (Fr.Status != ChunkStatus::Ok)
    return true; // the payload is cut off
  P = verifyPayload(Fr, Scratch);
  if (P.Status == ChunkStatus::BadCompression)
    return Corrupt("chunk " + std::to_string(Seq) +
                   " has a malformed compressed payload");
  if (P.Status != ChunkStatus::Ok)
    return Corrupt("chunk " + std::to_string(Seq) + " CRC mismatch (stored " +
                   std::to_string(Fr.H.Crc) + ", computed " +
                   std::to_string(P.Crc) + ")");
  return true;
}

std::string jdrag::profiler::chunkRecordsError(const StreamDecoder &Records,
                                               std::uint32_t Seq) {
  if (!Records.recordCut())
    return Records.error();
  return "corrupt event stream: record straddles a chunk boundary in "
         "self-contained chunk " +
         std::to_string(Seq);
}

FrameDecoder::FrameDecoder(RecordTarget C, WireFormat Format) : Records(C) {
  if (legacyFormat(Format))
    fail("unsupported event stream: v" +
         std::to_string(static_cast<unsigned>(Format)) +
         " is a legacy format; read it with replayFile or replayBytes");
}

bool FrameDecoder::fail(std::string Msg) {
  Failed = true;
  if (Error.empty())
    Error = std::move(Msg);
  return false;
}

bool FrameDecoder::feed(const std::byte *Data, std::size_t Size) {
  if (Failed)
    return false;

  // Same zero-copy-unless-straddling strategy as the record layer; on
  // the live path each feed is exactly one whole frame, so Pending
  // normally stays empty.
  const std::byte *Cur = Data;
  std::size_t Avail = Size;
  if (!Pending.empty()) {
    Pending.insert(Pending.end(), Data, Data + Size);
    Cur = Pending.data();
    Avail = Pending.size();
  }

  std::size_t Off = 0;
  while (true) {
    ChunkFrame Fr = readFrame({Cur + Off, Avail - Off});
    FramePayload P;
    std::string Err;
    if (!judgeStreamFrame(Fr, NextSeq, FooterSeen, true, Inflate, P, Err))
      return fail(std::move(Err));
    if (Fr.Status != ChunkStatus::Ok)
      break; // partial frame: wait for more bytes
    // A footer is a seek index, not stream data: swallow it.
    FooterSeen |= Fr.Footer;
    if (!Fr.Footer) {
      if (!Records.decodeChunk(P.Body.data(), P.Body.size()))
        return fail(chunkRecordsError(Records, NextSeq));
      ++Chunks;
      CompressedChunks += Fr.Compressed;
      ++NextSeq;
    }
    Off += Fr.Extent;
  }

  if (!Pending.empty()) {
    Pending.erase(Pending.begin(),
                  Pending.begin() + static_cast<std::ptrdiff_t>(Off));
  } else if (Off < Avail) {
    Pending.assign(Cur + Off, Cur + Avail);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Chunk index footer
//===----------------------------------------------------------------------===//

std::vector<std::byte> jdrag::profiler::encodeChunkIndexFooter(
    std::span<const ChunkIndexEntry> Entries, std::uint64_t TotalRecords) {
  std::size_t Payload = 8 + Entries.size() * sizeof(WireIndexEntry);
  std::vector<std::byte> Out(sizeof(ChunkHeader) + Payload + 8);
  std::byte *Body = Out.data() + sizeof(ChunkHeader);
  std::memcpy(Body, &TotalRecords, 8);
  std::size_t O = 8;
  for (const ChunkIndexEntry &E : Entries) {
    WireIndexEntry W;
    W.Offset = E.Offset;
    W.Seq = E.Seq;
    W.PayloadBytes = E.PayloadBytes;
    W.Crc = E.Crc;
    W.RecordCount = E.RecordCount;
    W.FirstTime = E.FirstTime;
    W.LastTime = E.LastTime;
    W.FirstRecord = E.FirstRecord;
    std::memcpy(Body + O, &W, sizeof(W));
    O += sizeof(W);
  }
  ChunkHeader H;
  H.Magic = FooterMagic;
  H.Seq = static_cast<std::uint32_t>(Entries.size());
  H.PayloadBytes = static_cast<std::uint32_t>(Payload);
  H.Crc = support::crc32c(Body, Payload);
  std::memcpy(Out.data(), &H, sizeof(H));
  std::uint32_t Bytes = static_cast<std::uint32_t>(Out.size());
  std::uint32_t Tail = FooterTailMagic;
  std::memcpy(Out.data() + Out.size() - 8, &Bytes, 4);
  std::memcpy(Out.data() + Out.size() - 4, &Tail, 4);
  return Out;
}

namespace {

/// Parses and CRC-verifies the footer block at the tail of \p Stream
/// into \p Out. With \p Whole, \p Stream is the whole framed stream and
/// the entries must tile it exactly up to the footer.
bool parseFooter(std::span<const std::byte> Stream, bool Whole,
                 ChunkIndex &Out) {
  std::size_t Bytes = footerBlockSize(Stream);
  if (!Bytes)
    return false;
  ChunkFrame Fr = readFrame(Stream.last(Bytes));
  std::vector<std::uint8_t> Unused; // a footer is never compressed
  if (verifyPayload(Fr, Unused).Status != ChunkStatus::Ok)
    return false;
  std::size_t Count = Fr.H.Seq; // the footer rule checked the shape

  ChunkIndex Idx;
  Idx.FromFooter = true;
  const std::byte *Body = Fr.payload();
  std::memcpy(&Idx.TotalRecords, Body, 8);
  Idx.Entries.reserve(Count);
  // Structural validation up front: entries must tile the data region
  // exactly (contiguous, in sequence, plausible sizes), so readers can
  // index the stream through them without further bounds checks. A
  // footer can still lie about chunk *contents* (counts, times, CRCs);
  // decoding verifies those and falls back to a rebuilt index.
  std::uint64_t Off = 0;
  for (std::size_t I = 0; I != Count; ++I) {
    WireIndexEntry W;
    std::memcpy(&W, Body + 8 + I * sizeof(W), sizeof(W));
    // v6+ entries carry the on-wire field (compressed flag + compressed
    // length); the tiling below is over on-wire bytes either way.
    std::uint32_t WireLen = chunkWireBytes(W.PayloadBytes);
    if (W.Offset != Off || W.Seq != I || WireLen == 0 ||
        WireLen > MaxChunkPayload)
      return false;
    Off += sizeof(ChunkHeader) + WireLen;
    ChunkIndexEntry E;
    E.Offset = W.Offset;
    E.Seq = W.Seq;
    E.PayloadBytes = W.PayloadBytes;
    E.Crc = W.Crc;
    E.RecordCount = W.RecordCount;
    E.FirstTime = W.FirstTime;
    E.LastTime = W.LastTime;
    E.FirstRecord = W.FirstRecord;
    Idx.Entries.push_back(E);
  }
  if (Whole && Off != Stream.size() - Bytes)
    return false;
  Out = std::move(Idx);
  return true;
}

} // namespace

bool jdrag::profiler::readChunkIndexFooter(std::span<const std::byte> Stream,
                                           ChunkIndex &Out) {
  return parseFooter(Stream, /*Whole=*/true, Out);
}

bool jdrag::profiler::peekChunkIndexFooterTail(std::span<const std::byte> Tail,
                                               ChunkIndex &Out) {
  // footerBlockSize only looks at the last `Bytes` bytes, so running it
  // on a suffix is sound; what a suffix cannot support is the tiling
  // check against the footer's absolute start, which is why this is a
  // "peek" -- the entries are verified internally consistent, not
  // consistent with the data region.
  return parseFooter(Tail, /*Whole=*/false, Out);
}

namespace {

/// The first and last time of one chunk's records, for rebuildChunkIndex
/// (the decoder counts the records).
class ChunkTimes : public EventConsumer {
public:
  bool HasTime = false;
  ByteTime First = 0, Last = 0;
  void onSite(SiteId, std::span<const SiteFrame>) override {}
  void onEvent(const EventRecord &E) override {
    if (!HasTime) {
      HasTime = true;
      First = E.Time;
    }
    Last = E.Time;
  }
};

} // namespace

bool jdrag::profiler::rebuildChunkIndex(std::span<const std::byte> Stream,
                                        ChunkIndex &Out, std::string *Err) {
  auto Fail = [&](std::string Msg) {
    if (Err)
      *Err = std::move(Msg);
    return false;
  };
  Out = ChunkIndex();

  // One pass over the frames (structure only -- data-chunk CRCs are
  // verified by whoever decodes the payloads), decoding each chunk
  // body on its own.
  ChunkTimes Times;
  StreamDecoder Dec(Times);
  std::vector<std::uint8_t> Inflate;
  std::size_t End = Stream.size();
  std::size_t Off = 0;
  std::uint32_t NextSeq = 0;
  while (Off < End) {
    ChunkFrame Fr = readFrame(Stream.subspan(Off));
    if (Fr.Status == ChunkStatus::TruncatedHeader)
      return Fail("truncated chunk header at offset " + std::to_string(Off));
    if (Fr.Footer) {
      // A footer is only legal as the terminal block, and is judged by
      // the footer rule like every reader judges it; its entries are
      // what this rebuild replaces.
      if (Fr.Status != ChunkStatus::Ok || Fr.Extent != End - Off)
        return Fail("malformed chunk index footer");
      if (verifyPayload(Fr, Inflate).Status != ChunkStatus::Ok)
        return Fail("damaged chunk index footer");
      break;
    }
    if (Fr.Status == ChunkStatus::BadMagic)
      return Fail("bad chunk magic at chunk " + std::to_string(NextSeq));
    if (Fr.Status == ChunkStatus::OversizedPayload)
      return Fail("chunk " + std::to_string(NextSeq) +
                  " has implausible payload length " +
                  std::to_string(Fr.H.PayloadBytes));
    if (Fr.H.Seq != NextSeq)
      return Fail("chunk sequence jumped from " + std::to_string(NextSeq) +
                  " to " + std::to_string(Fr.H.Seq));
    if (Fr.Status == ChunkStatus::TruncatedPayload)
      return Fail("truncated chunk payload in chunk " +
                  std::to_string(NextSeq));
    // The record walk needs uncompressed bytes; a chunk whose
    // compressed payload does not decode is structural damage, same
    // class as a truncated frame.
    std::span<const std::byte> Body(Fr.payload(), Fr.PayloadBytes);
    if (Fr.Compressed && !chunkPayloadBytes(Fr.H, Fr.payload(), Inflate, Body))
      return Fail("corrupt compressed payload in chunk " +
                  std::to_string(NextSeq));
    ChunkIndexEntry E;
    E.Offset = Off;
    E.Seq = Fr.H.Seq;
    E.PayloadBytes = Fr.H.PayloadBytes; // on-wire field, flag included
    E.Crc = Fr.H.Crc;
    E.FirstRecord = Dec.eventsDecoded();
    Times.HasTime = false;
    if (!Dec.decodeChunk(Body.data(), Body.size()))
      return Fail((Dec.recordCut() ? "record straddles a chunk boundary in "
                                     "self-contained chunk "
                                   : "malformed record in chunk ") +
                  std::to_string(NextSeq));
    E.RecordCount =
        static_cast<std::uint32_t>(Dec.eventsDecoded() - E.FirstRecord);
    if (Times.HasTime) {
      E.FirstTime = Times.First;
      E.LastTime = Times.Last;
    }
    Out.Entries.push_back(E);
    ++NextSeq;
    Off += Fr.Extent;
  }
  Out.TotalRecords = Dec.eventsDecoded();
  return true;
}

//===----------------------------------------------------------------------===//
// Replay
//===----------------------------------------------------------------------===//

bool jdrag::profiler::replayBytes(std::span<const std::byte> Bytes,
                                  RecordTarget C, std::string *Err,
                                  WireFormat Format) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  const char *Truncated =
      "truncated event stream: partial trailing chunk or record";
  if (legacyFormat(Format)) {
    std::string LegacyErr;
    switch (replayLegacyStream(Bytes, Format, C.consumer(), LegacyErr)) {
    case LegacyStatus::Ok:
      return true;
    case LegacyStatus::Truncated:
      return Fail(Truncated);
    case LegacyStatus::Corrupt:
      return Fail(LegacyErr);
    }
  }
  FrameDecoder D(C);
  if (!D.feed(Bytes.data(), Bytes.size()))
    return Fail(D.error());
  if (!D.atRecordBoundary())
    return Fail(Truncated);
  return true;
}

bool jdrag::profiler::parseStreamHeader(std::span<const std::byte> Bytes,
                                        StreamHeaderInfo &Info,
                                        std::string *Err) {
  auto Fail = [&](std::string Msg) {
    if (Err)
      *Err = std::move(Msg);
    return false;
  };
  std::uint64_t Magic = 0;
  if (Bytes.size() >= sizeof(Magic))
    std::memcpy(&Magic, Bytes.data(), sizeof(Magic));
  if (Bytes.size() >= sizeof(Magic) && Magic != StreamMagic)
    return Fail("not a .jdev event stream (bad magic)");
  if (Bytes.size() < 16)
    return Fail("not a .jdev event stream (too short)");
  std::uint32_t Version = 0;
  std::memcpy(&Version, Bytes.data() + 8, sizeof(Version));
  if (Version < static_cast<std::uint32_t>(WireFormat::V2) ||
      Version > static_cast<std::uint32_t>(WireFormat::V8))
    return Fail("unsupported .jdev version " + std::to_string(Version));
  auto F = static_cast<WireFormat>(Version);
  if (Bytes.size() < streamHeaderBytes(F))
    return Fail("truncated v" + std::to_string(Version) + " stream header");
  Info = StreamHeaderInfo();
  Info.Format = F;
  if (streamHeaderBytes(F) == 32) {
    std::memcpy(&Info.Sampling.SampleBytes, Bytes.data() + 16, 8);
    std::memcpy(&Info.Sampling.SampleSeed, Bytes.data() + 24, 8);
  }
  return true;
}

namespace {

/// Opens \p Path for reading if it is a regular file: a directory opens
/// too, but holds no bytes to read. Returns null with \p Err "cannot
/// open <path>" when it does not open, "cannot read <path>" when it is
/// not a regular file.
std::FILE *openRegularFile(const std::string &Path, std::string &Err) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Err = "cannot open " + Path;
    return nullptr;
  }
  struct stat St;
  if (fstat(fileno(F), &St) != 0 || !S_ISREG(St.st_mode)) {
    std::fclose(F);
    Err = "cannot read " + Path;
    return nullptr;
  }
  return F;
}

/// Reads the `.jdev` header at the start of \p F through
/// parseStreamHeader and leaves \p F at the first chunk frame.
bool readHeaderFrom(std::FILE *F, const std::string &Path,
                    StreamHeaderInfo &Info, std::string &Err) {
  std::byte Buf[32];
  std::size_t N = std::fread(Buf, 1, sizeof(Buf), F);
  if (!parseStreamHeader({Buf, N}, Info, &Err)) {
    Err = Path + ": " + Err;
    return false;
  }
  if (std::fseek(F, static_cast<long>(streamHeaderBytes(Info.Format)),
                 SEEK_SET) != 0) {
    Err = Path + ": read error";
    return false;
  }
  return true;
}

} // namespace

bool jdrag::profiler::replayFile(const std::string &Path, RecordTarget C,
                                 std::string *Err, StreamHeaderInfo *Info) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  std::string OpenErr;
  std::FILE *F = openRegularFile(Path, OpenErr);
  if (!F)
    return Fail(OpenErr);

  StreamHeaderInfo Hdr;
  std::string HdrErr;
  if (!readHeaderFrom(F, Path, Hdr, HdrErr)) {
    std::fclose(F);
    return Fail(HdrErr);
  }
  if (Info)
    *Info = Hdr;

  // LegacyStream reads a legacy stream's frames all at once; v8 streams
  // decode as they are read.
  bool Legacy = legacyFormat(Hdr.Format);
  std::vector<std::byte> Framed;
  FrameDecoder D(C);
  std::byte Buf[64 * 1024];
  bool Ok = true;
  while (true) {
    std::size_t N = std::fread(Buf, 1, sizeof(Buf), F);
    if (N == 0)
      break;
    if (Legacy) {
      Framed.insert(Framed.end(), Buf, Buf + N);
    } else if (!D.feed(Buf, N)) {
      Ok = false;
      break;
    }
  }
  bool ReadError = std::ferror(F) != 0;
  std::fclose(F);
  if (!Ok)
    return Fail(D.error());
  if (ReadError)
    return Fail(Path + ": read error");
  bool Complete = D.atRecordBoundary();
  if (Info)
    Info->Compressed = D.compressedChunks() != 0;
  if (Legacy) {
    std::string LegacyErr;
    bool Compressed = false;
    LegacyStatus S = replayLegacyStream(Framed, Hdr.Format, C.consumer(),
                                        LegacyErr, &Compressed);
    if (Info)
      Info->Compressed = Compressed;
    if (S == LegacyStatus::Corrupt)
      return Fail(LegacyErr);
    Complete = S == LegacyStatus::Ok;
  }
  if (!Complete)
    return Fail(Path +
                ": truncated event stream (partial trailing chunk or "
                "record); try `jdrag salvage`");
  return true;
}

bool jdrag::profiler::readStreamHeader(const std::string &Path,
                                       StreamHeaderInfo &Info,
                                       std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  std::string HdrErr;
  std::FILE *F = openRegularFile(Path, HdrErr);
  if (!F)
    return Fail(HdrErr);
  if (!readHeaderFrom(F, Path, Info, HdrErr)) {
    std::fclose(F);
    return Fail(HdrErr);
  }
  std::fclose(F);
  return true;
}

bool jdrag::profiler::readWholeFile(const std::string &Path,
                                    std::vector<std::byte> &Out) {
  std::string Err;
  std::FILE *F = openRegularFile(Path, Err);
  if (!F)
    return false;
  // Only a regular file's size is its length.
  struct stat St;
  bool Ok = fstat(fileno(F), &St) == 0;
  if (Ok) {
    Out.resize(static_cast<std::size_t>(St.st_size));
    Ok = Out.empty() ||
         std::fread(Out.data(), 1, Out.size(), F) == Out.size();
  }
  std::fclose(F);
  return Ok;
}
