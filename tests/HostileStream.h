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

/// Writes a well-formed two-chunk stream through \p Buf whose second
/// object carries the id \p Hostile: chunk 0 allocates object 1 and the
/// hostile object, chunk 1 uses the hostile object, collects object 1,
/// keeps the hostile one to the end and terminates. Every frame is
/// CRC-valid, so only the id itself is hostile: a table sized by the id
/// space rather than the live objects would need ~Hostile/64 directory
/// entries to hold it. Both objects are class 0, allocated at no site.
inline void writeHostileIdEvents(profiler::EventBuffer &Buf,
                                 std::uint64_t Hostile) {
  using profiler::EventKind;
  auto Event = [&](EventKind K, ByteTime Time, std::uint64_t Id) {
    profiler::EventRecord E;
    E.Kind = static_cast<std::uint8_t>(K);
    E.Time = Time;
    E.Id = Id;
    if (K == EventKind::Alloc)
      E.Arg0 = 16; // bytes; Arg1 (class) stays 0
    Buf.writeEvent(E);
  };
  Event(EventKind::Alloc, 16, 1);
  Event(EventKind::Alloc, 32, Hostile);
  Buf.flush();
  Event(EventKind::Use, 48, Hostile);
  Event(EventKind::Collect, 64, 1);
  Event(EventKind::Survivor, 80, Hostile);
  Event(EventKind::Terminate, 80, 0);
  Buf.finishStream();
}

/// The object ids of writeWrappingIdEvents, in allocation order: each
/// step from one to the next wraps the id space.
inline constexpr std::uint64_t WrappingIds[] = {~std::uint64_t(0), 0,
                                                std::uint64_t(1) << 63};

/// Writes a well-formed three-chunk stream through \p Buf whose object
/// ids wrap around 2^64 -- 2^64-1, then 0, then 2^63 -- once inside a
/// chunk and once across a chunk boundary, so the v7 id deltas take
/// their extreme values (-1, +1, -2^63, 2^63-1). Chunk 0 allocates the
/// three objects (16 bytes each, class 0, no site); chunk 1 uses 2^63
/// and then 2^64-1; chunk 2 uses 0 and 2^63, collects 2^64-1 and 0,
/// keeps 2^63 to the end and terminates.
inline void writeWrappingIdEvents(profiler::EventBuffer &Buf) {
  using profiler::EventKind;
  auto Event = [&](EventKind K, ByteTime Time, std::uint64_t Id) {
    profiler::EventRecord E;
    E.Kind = static_cast<std::uint8_t>(K);
    E.Time = Time;
    E.Id = Id;
    if (K == EventKind::Alloc)
      E.Arg0 = 16;
    Buf.writeEvent(E);
  };
  const std::uint64_t A = WrappingIds[0], B = WrappingIds[1],
                      C = WrappingIds[2];
  Event(EventKind::Alloc, 16, A);
  Event(EventKind::Alloc, 32, B);
  Event(EventKind::Alloc, 48, C);
  Buf.flush();
  Event(EventKind::Use, 48, C);
  Event(EventKind::Use, 48, A);
  Buf.flush();
  Event(EventKind::Use, 48, B);
  Event(EventKind::Use, 48, C);
  Event(EventKind::Collect, 64, A);
  Event(EventKind::Collect, 64, B);
  Event(EventKind::Survivor, 80, C);
  Event(EventKind::Terminate, 80, 0);
  Buf.finishStream();
}

/// Writes a well-formed two-chunk stream through \p Buf whose byte
/// clock steps backwards across the chunk boundary. Chunk 0 holds 64
/// GCEnd samples (t = 10 .. 640, enough bytes that a byte-balanced
/// two-way split gives it its own shard) and ends with a DeepGCEnd at
/// t = 1000. Chunk 1 allocates object 1 (16 bytes, class 0, no site)
/// at t = 500, uses it at t = 600, collects it at t = 700 and
/// terminates. With snapped use times the use lands on the deep-GC
/// boundary, max(1000, 500) = 1000, which only a reader that knows
/// chunk 0's boundary can see.
inline void writeBackwardClockEvents(profiler::EventBuffer &Buf) {
  using profiler::EventKind;
  auto Event = [&](EventKind K, ByteTime Time, std::uint64_t Id = 0,
                   std::uint64_t Arg0 = 0, std::uint64_t Arg1 = 0) {
    profiler::EventRecord E;
    E.Kind = static_cast<std::uint8_t>(K);
    E.Time = Time;
    E.Id = Id;
    E.Arg0 = Arg0;
    E.Arg1 = Arg1;
    Buf.writeEvent(E);
  };
  for (std::uint64_t I = 1; I <= 64; ++I)
    Event(EventKind::GCEnd, 10 * I, 0, 1000 * I, 100000 * I);
  Event(EventKind::DeepGCEnd, 1000);
  Buf.flush();
  Event(EventKind::Alloc, 500, 1, /*Bytes=*/16);
  Event(EventKind::Use, 600, 1);
  Event(EventKind::Collect, 700, 1);
  Event(EventKind::Terminate, 700);
  Buf.finishStream();
}

/// The id writeReallocatedIdEvents allocates twice.
inline constexpr std::uint64_t ReallocatedId = 7;

/// Writes a well-formed three-chunk stream through \p Buf that
/// allocates ReallocatedId again while it is live, one chunk later.
/// Each chunk starts with GCEnd samples (48 in chunk 0, 32 in the
/// others) so that a byte-balanced three-way split gives every chunk its
/// own shard. Chunk 0 allocates the object (16 bytes, class 0, no site)
/// at t = 100. Chunk 1 allocates it again at t = 200, which replaces the
/// first trailer, uses it at t = 250 and collects it at t = 300. Chunk 2
/// uses and collects the id once more (t = 450 and 500), which a reader
/// must ignore because the object is gone, and terminates.
inline void writeReallocatedIdEvents(profiler::EventBuffer &Buf) {
  using profiler::EventKind;
  auto Event = [&](EventKind K, ByteTime Time, std::uint64_t Id = 0,
                   std::uint64_t Arg0 = 0, std::uint64_t Arg1 = 0) {
    profiler::EventRecord E;
    E.Kind = static_cast<std::uint8_t>(K);
    E.Time = Time;
    E.Id = Id;
    E.Arg0 = Arg0;
    E.Arg1 = Arg1;
    Buf.writeEvent(E);
  };
  auto Pad = [&](std::uint64_t N) {
    for (std::uint64_t I = 1; I <= N; ++I)
      Event(EventKind::GCEnd, I, 0, 1000 * I, 100000 * I);
  };
  Pad(48);
  Event(EventKind::Alloc, 100, ReallocatedId, /*Bytes=*/16);
  Buf.flush();
  Pad(32);
  Event(EventKind::Alloc, 200, ReallocatedId, /*Bytes=*/16);
  Event(EventKind::Use, 250, ReallocatedId);
  Event(EventKind::Collect, 300, ReallocatedId);
  Buf.flush();
  Pad(32);
  Event(EventKind::Use, 450, ReallocatedId);
  Event(EventKind::Collect, 500, ReallocatedId);
  Event(EventKind::Terminate, 500);
  Buf.finishStream();
}

/// Writes a three-chunk stream into \p Sink, one frame per
/// writeChunk call, whose middle chunk is CRC-valid but ends inside its
/// last record. Chunk 0 allocates objects 1 and 2 (16 bytes each);
/// chunk 1 uses object 1 and then holds a Collect of object 1 (tag,
/// one-byte time delta, one-byte id) whose id byte is cut off, with
/// the frame's length and CRC rewritten to match; chunk 2 ends object 2
/// and terminates. The stream has no footer, so every frame check
/// passes and only the record layer can see the damage.
inline void writeCutRecordChunks(profiler::EventSink &Sink) {
  using profiler::ChunkHeader;
  using profiler::EventKind;
  profiler::MemorySink Mem;
  profiler::EventBuffer Buf(Mem);
  auto Event = [&](EventKind K, ByteTime Time, std::uint64_t Id) {
    profiler::EventRecord E;
    E.Kind = static_cast<std::uint8_t>(K);
    E.Time = Time;
    E.Id = Id;
    if (K == EventKind::Alloc)
      E.Arg0 = 16;
    Buf.writeEvent(E);
  };
  Event(EventKind::Alloc, 16, 1);
  Event(EventKind::Alloc, 32, 2);
  Buf.flush();
  Event(EventKind::Use, 48, 1);
  Event(EventKind::Collect, 64, 1);
  Buf.flush();
  Event(EventKind::Survivor, 80, 2);
  Event(EventKind::Terminate, 80, 0);
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
