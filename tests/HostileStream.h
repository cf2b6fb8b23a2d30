//===- tests/HostileStream.h - CRC-valid hostile streams --------*- C++ -*-===//
//
// Part of jdrag test suite.
//
//===----------------------------------------------------------------------===//

#ifndef JDRAG_TESTS_HOSTILESTREAM_H
#define JDRAG_TESTS_HOSTILESTREAM_H

#include "profiler/EventStream.h"
#include "support/Crc32c.h"

#include <cstdint>
#include <cstring>
#include <vector>

namespace jdrag::testutil {

/// A v8 Collect (or Survivor, by \p K) record at \p Time of the object
/// \p Id: a \p Bytes-byte instance of class 0 allocated at \p AllocTime
/// at no site. With \p Uses > 0 it was used that often, outside its
/// initialization, first and last at \p LastUse, under deep-GC boundary
/// 0, at no site.
inline profiler::EventRecord objectRecord(profiler::EventKind K,
                                          ByteTime Time, std::uint64_t Id,
                                          ByteTime AllocTime,
                                          std::uint32_t Uses = 0,
                                          ByteTime LastUse = 0,
                                          std::uint64_t Bytes = 16) {
  profiler::EventRecord E;
  E.Kind = static_cast<std::uint8_t>(K);
  E.Time = Time;
  E.Id = Id;
  E.Arg0 = Bytes;
  E.Arg1 = 0;
  E.AllocTime = AllocTime;
  E.FirstUseTime = E.LastUseTime = Uses ? LastUse : AllocTime;
  E.FirstUseBoundary = E.LastUseBoundary = Uses ? 0 : AllocTime;
  E.UseCount = Uses;
  E.Flags = Uses ? profiler::RecordUsedOutsideInit : 0;
  return E;
}

/// A timed record of kind \p K (GCEnd, DeepGCEnd, Terminate) at \p Time.
inline profiler::EventRecord timedRecord(profiler::EventKind K,
                                         ByteTime Time,
                                         std::uint64_t Arg0 = 0,
                                         std::uint64_t Arg1 = 0) {
  profiler::EventRecord E;
  E.Kind = static_cast<std::uint8_t>(K);
  E.Time = Time;
  E.Arg0 = Arg0;
  E.Arg1 = Arg1;
  return E;
}

/// Writes a well-formed two-chunk stream through \p Buf whose second
/// object carries the id \p Hostile: chunk 0 collects object 1
/// (allocated at 16, never used) at 64; chunk 1 keeps the hostile object
/// (allocated at 32, used once at 48) to the end at 80 and terminates.
/// Every frame is CRC-valid, so only the id itself is hostile: a reader
/// that kept a table sized by the id space rather than the live objects
/// would need ~Hostile/64 directory entries to hold it.
inline void writeHostileIdEvents(profiler::EventBuffer &Buf,
                                 std::uint64_t Hostile) {
  using profiler::EventKind;
  Buf.writeEvent(objectRecord(EventKind::Collect, 64, 1, 16));
  Buf.flush();
  Buf.writeEvent(objectRecord(EventKind::Survivor, 80, Hostile, 32, 1, 48));
  Buf.writeEvent(timedRecord(EventKind::Terminate, 80));
  Buf.finishStream();
}

/// The object ids of writeWrappingIdEvents, in record order: each step
/// from one to the next wraps the id space.
inline constexpr std::uint64_t WrappingIds[] = {~std::uint64_t(0), 0,
                                                std::uint64_t(1) << 63};

/// Writes a well-formed two-chunk stream through \p Buf whose object
/// ids wrap around 2^64 -- 2^64-1, then 0, then 2^63 -- so the id deltas
/// take extreme values: -1 from the chunk's zero base, +1 across the
/// wrap inside chunk 0, and -2^63 from the zero base of chunk 1. The
/// three objects are 16-byte instances of class 0 allocated at 16, 32
/// and 48 at no site. Chunk 0 collects 2^64-1 and 0 at 64, each used
/// once at 48; chunk 1 keeps 2^63, used twice, to the end at 80 and
/// terminates.
inline void writeWrappingIdEvents(profiler::EventBuffer &Buf) {
  using profiler::EventKind;
  const std::uint64_t A = WrappingIds[0], B = WrappingIds[1],
                      C = WrappingIds[2];
  Buf.writeEvent(objectRecord(EventKind::Collect, 64, A, 16, 1, 48));
  Buf.writeEvent(objectRecord(EventKind::Collect, 64, B, 32, 1, 48));
  Buf.flush();
  Buf.writeEvent(objectRecord(EventKind::Survivor, 80, C, 48, 2, 48));
  Buf.writeEvent(timedRecord(EventKind::Terminate, 80));
  Buf.finishStream();
}

/// Writes a well-formed two-chunk stream through \p Buf whose byte
/// clock steps backwards across the chunk boundary. Chunk 0 holds 64
/// GCEnd samples (t = 10 .. 640, enough bytes that a byte-balanced
/// two-way split gives it its own shard) and ends with a DeepGCEnd at
/// t = 1000. Chunk 1 collects object 1 (16 bytes, class 0, no site),
/// allocated at t = 500 and used once at t = 600 under the deep-GC
/// boundary 400, at t = 700 and terminates. The record carries the
/// boundary its use saw, so no reader needs chunk 0 to finish it.
inline void writeBackwardClockEvents(profiler::EventBuffer &Buf) {
  using profiler::EventKind;
  for (std::uint64_t I = 1; I <= 64; ++I)
    Buf.writeEvent(timedRecord(EventKind::GCEnd, 10 * I, 1000 * I,
                               100000 * I));
  Buf.writeEvent(timedRecord(EventKind::DeepGCEnd, 1000));
  Buf.flush();
  profiler::EventRecord E = objectRecord(EventKind::Collect, 700, 1, 500, 1,
                                         600);
  E.FirstUseBoundary = E.LastUseBoundary = 400;
  Buf.writeEvent(E);
  Buf.writeEvent(timedRecord(EventKind::Terminate, 700));
  Buf.finishStream();
}

/// The id writeReallocatedIdEvents records three times.
inline constexpr std::uint64_t ReallocatedId = 7;

/// Writes a well-formed three-chunk stream through \p Buf that ends the
/// object ReallocatedId once in each chunk. Each chunk starts with GCEnd
/// samples (48 in chunk 0, 32 in the others) so that a byte-balanced
/// three-way split gives every chunk its own shard. Chunk 0 collects it
/// (16 bytes, class 0, no site) allocated at t = 100, never used, at
/// t = 150; chunk 1 allocated at t = 200, used at t = 250, at t = 300;
/// chunk 2 allocated at t = 400, used at t = 450, at t = 500, and
/// terminates. Every record stands alone, so each one is logged.
inline void writeReallocatedIdEvents(profiler::EventBuffer &Buf) {
  using profiler::EventKind;
  auto Pad = [&](std::uint64_t N) {
    for (std::uint64_t I = 1; I <= N; ++I)
      Buf.writeEvent(timedRecord(EventKind::GCEnd, I, 1000 * I, 100000 * I));
  };
  Pad(48);
  Buf.writeEvent(objectRecord(EventKind::Collect, 150, ReallocatedId, 100));
  Buf.flush();
  Pad(32);
  Buf.writeEvent(
      objectRecord(EventKind::Collect, 300, ReallocatedId, 200, 1, 250));
  Buf.flush();
  Pad(32);
  Buf.writeEvent(
      objectRecord(EventKind::Collect, 500, ReallocatedId, 400, 1, 450));
  Buf.writeEvent(timedRecord(EventKind::Terminate, 500));
  Buf.finishStream();
}

/// Writes a three-chunk stream into \p Sink, one frame per
/// writeChunk call, whose middle chunk is CRC-valid but ends inside its
/// last record. Chunk 0 collects object 1 and ends object 2 (16 bytes
/// each, allocated at 16 and 32); chunk 1 records a GC sample and then
/// holds a DeepGCEnd (tag, one-byte time delta) whose time byte is cut
/// off, with the frame's length and CRC rewritten to match; chunk 2
/// terminates. The stream has no footer, so every frame check passes
/// and only the record layer can see the damage.
inline void writeCutRecordChunks(profiler::EventSink &Sink) {
  using profiler::ChunkHeader;
  using profiler::EventKind;
  profiler::MemorySink Mem;
  profiler::EventBuffer Buf(Mem);
  Buf.writeEvent(objectRecord(EventKind::Collect, 48, 1, 16, 1, 40));
  Buf.writeEvent(objectRecord(EventKind::Survivor, 48, 2, 32));
  Buf.flush();
  Buf.writeEvent(timedRecord(EventKind::GCEnd, 48, 16, 1));
  Buf.writeEvent(timedRecord(EventKind::DeepGCEnd, 64));
  Buf.flush();
  Buf.writeEvent(timedRecord(EventKind::Terminate, 80));
  Buf.flush();

  std::span<const std::byte> Bytes = Mem.bytes();
  std::size_t Off = 0;
  while (Off < Bytes.size()) {
    ChunkHeader H;
    std::memcpy(&H, Bytes.data() + Off, sizeof(H));
    std::vector<std::byte> Frame(Bytes.begin() + Off,
                                 Bytes.begin() + Off + sizeof(H) +
                                     H.PayloadBytes);
    Off += Frame.size();
    if (H.Seq == 1) {
      Frame.pop_back();
      --H.PayloadBytes;
      H.Crc = support::crc32c(Frame.data() + sizeof(H), H.PayloadBytes);
      std::memcpy(Frame.data(), &H, sizeof(H));
    }
    Sink.writeChunk(Frame.data(), Frame.size());
  }
}

} // namespace jdrag::testutil

#endif // JDRAG_TESTS_HOSTILESTREAM_H
