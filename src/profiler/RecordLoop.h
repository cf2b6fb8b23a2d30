//===- profiler/RecordLoop.h - The varint record loop -----------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The record layer of a varint chunk body: the wire constants, the
/// varint readers and StreamDecoder's record loop, the only parser of
/// varint records. The loop lives in a header because it is a template
/// on the consumer type (RecordTarget picks the instantiation), so a
/// final consumer's onEvent inlines into it; profiler/EventStream.h
/// includes this file last. EventStream.cpp's encoder writes with the
/// same constants. The v7 loop is instantiated per final consumer; the
/// absolute-id loop of v3-v6 only once, in profiler/LegacyStream.cpp.
///
/// The per-record steps (the readers' fast paths, readId, the per-kind
/// record decode and the consumer's onEvent) are marked always_inline.
/// As inline functions of a header, GCC at -O2 otherwise leaves them as
/// out-of-line calls, which costs the loop more than the virtual call
/// it removes.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_PROFILER_RECORDLOOP_H
#define JDRAG_PROFILER_RECORDLOOP_H

#include "profiler/EventStream.h"

namespace jdrag::profiler {

namespace wire {

//===----------------------------------------------------------------------===//
// Varint primitives
//===----------------------------------------------------------------------===//
//
// LEB128 unsigned varints, at most 10 bytes for a u64. Timestamps are
// zigzag-mapped signed *deltas* against the previous record's time (the
// byte clock is monotonic, so deltas are small). From v7 object ids are
// zigzag deltas too, against the previous id-carrying record of the
// chunk. Every other field is an unsigned varint of its value. SiteIds
// are biased by +1 so the common InvalidSite (~0u) costs one byte
// instead of five.

inline constexpr std::size_t MaxVarintBytes = 10;

inline constexpr std::uint64_t zigzagEncode(std::int64_t V) {
  return (static_cast<std::uint64_t>(V) << 1) ^
         static_cast<std::uint64_t>(V >> 63);
}

inline constexpr std::int64_t zigzagDecode(std::uint64_t V) {
  return static_cast<std::int64_t>(V >> 1) ^
         -static_cast<std::int64_t>(V & 1);
}

// Tag byte: bits 0-2 = EventKind, bits 3-7 = kind-specific inline
// flags. Spare bits MUST be zero -- a set spare bit fails the decode,
// preserving the corruption detection the fixed v2 format got for free.
inline constexpr std::uint8_t TagKindMask = 0x07;
inline constexpr std::uint8_t AllocIsArrayBit = 0x08;  // Flags bit0
inline constexpr std::uint8_t AllocKindShift = 4;      // Sub (2-bit ArrayKind)
inline constexpr std::uint8_t AllocSpareMask = 0xC0;   // bits 6-7
inline constexpr std::uint8_t UseDuringInitBit = 0x08; // Flags bit0
inline constexpr std::uint8_t UseKindShift = 4;        // Sub (3-bit UseKind)
inline constexpr std::uint8_t UseSpareMask = 0x80;     // bit 7

/// Upper bound on any encoded timed (non-site) varint record: tag + 5
/// varints. With at least this much of the body left, a record decode
/// can skip every per-byte bounds check (the loop's fast path).
inline constexpr std::size_t MaxTimedRecordBytes = 1 + 5 * MaxVarintBytes;

/// Bounded varint reader over one contiguous span. Distinguishes "ran
/// out of bytes" (Short: the end of the chunk body cuts the record off)
/// from "malformed" (Bad: overlong varint or u64 overflow).
struct VarReader {
  const std::byte *P;
  std::size_t N;
  std::size_t Off = 0;
  bool Short = false;
  bool Bad = false;

  [[gnu::always_inline]] std::uint64_t uvar() {
    // Almost every field fits one byte.
    if (Off != N) {
      auto B = std::to_integer<std::uint8_t>(P[Off]);
      if (B < 0x80) {
        ++Off;
        return B;
      }
    }
    return uvarLong();
  }

  std::uint64_t uvarLong() {
    std::uint64_t V = 0;
    for (std::size_t I = 0; I != MaxVarintBytes; ++I) {
      if (Off == N) {
        Short = true;
        return 0;
      }
      auto B = std::to_integer<std::uint8_t>(P[Off++]);
      V |= static_cast<std::uint64_t>(B & 0x7F) << (7 * I);
      if (!(B & 0x80)) {
        if (I == MaxVarintBytes - 1 && B > 1)
          Bad = true; // 10th byte may only carry bit 64's remainder
        return V;
      }
    }
    Bad = true; // continuation bit set past the 10-byte limit
    return 0;
  }

  [[gnu::always_inline]] std::int64_t svar() {
    return zigzagDecode(uvar());
  }

  /// uvar that must fit a u32 (site ids, frame fields).
  [[gnu::always_inline]] std::uint32_t uvar32() {
    std::uint64_t V = uvar();
    if (V > 0xFFFFFFFFull)
      Bad = true;
    return static_cast<std::uint32_t>(V);
  }
};

/// VarReader without bounds checks, for spans proven long enough to
/// hold the whole record (MaxTimedRecordBytes). Still detects overlong
/// varints (Bad) -- only the Short machinery is gone.
struct FastVarReader {
  static constexpr bool Short = false;
  const std::byte *P;
  std::size_t Off = 0;
  bool Bad = false;

  [[gnu::always_inline]] std::uint64_t uvar() {
    auto B = std::to_integer<std::uint8_t>(P[Off]);
    if (B < 0x80) { // almost every field fits one byte
      ++Off;
      return B;
    }
    return uvarLong();
  }

  [[gnu::always_inline]] std::uint64_t uvarLong() {
    std::uint64_t V = 0;
    for (std::size_t I = 0; I != MaxVarintBytes; ++I) {
      auto B = std::to_integer<std::uint8_t>(P[Off++]);
      V |= static_cast<std::uint64_t>(B & 0x7F) << (7 * I);
      if (!(B & 0x80)) {
        if (I == MaxVarintBytes - 1 && B > 1)
          Bad = true; // 10th byte may only carry bit 64's remainder
        return V;
      }
    }
    Bad = true; // continuation bit set past the 10-byte limit
    return 0;
  }

  [[gnu::always_inline]] std::int64_t svar() {
    return zigzagDecode(uvar());
  }

  [[gnu::always_inline]] std::uint32_t uvar32() {
    std::uint64_t V = uvar();
    if (V > 0xFFFFFFFFull)
      Bad = true;
    return static_cast<std::uint32_t>(V);
  }
};

/// Reads an object id: an absolute varint before v7; from v7 a zigzag
/// delta added (mod 2^64) to \p Last, the chunk's previous id, which it
/// then replaces.
template <bool Delta, class Reader>
[[gnu::always_inline]] inline vm::ObjectId readId(Reader &R,
                                                  vm::ObjectId &Last) {
  if constexpr (Delta)
    return Last += static_cast<std::uint64_t>(R.svar());
  else
    return R.uvar();
}

} // namespace wire

//===----------------------------------------------------------------------===//
// The record loop
//===----------------------------------------------------------------------===//

template <class Consumer>
  requires std::derived_from<Consumer, EventConsumer>
RecordTarget::RecordTarget(Consumer &Cons)
    : C(&Cons),
      Loop(&StreamDecoder::loop<std::conditional_t<std::is_final_v<Consumer>,
                                                   Consumer, EventConsumer>,
                                true>) {}

template <class Reader, class Consumer>
StreamDecoder::Verdict StreamDecoder::deliver(const Reader &R,
                                              const EventRecord &E,
                                              ByteTime &LastTime,
                                              Consumer &C) {
  // Malformation wins over a cut: Bad never depends on the bytes past
  // the end of the body.
  if (R.Bad)
    return Verdict::BadVarint;
  if (R.Short)
    return Verdict::Cut;
  LastTime = E.Time;
  C.onEvent(E);
  return Verdict::Ok;
}

/// Decodes the fields after the tag byte of one timed record, its time
/// delta taken against \p LastTime and (for \p Delta, v7) its id delta
/// against \p LastId, and hands the record to \p C. Every kind delivers
/// from its own case, so the kind is a constant there and an inlined
/// onEvent's own switch on it folds away. Instantiated for both readers:
/// FastVarReader where the whole record is known to be in range,
/// VarReader near the end of a body.
template <bool Delta, class Reader, class Consumer>
StreamDecoder::Verdict
StreamDecoder::timedRecord(Reader &R, std::uint8_t Tag, ByteTime &LastTime,
                           vm::ObjectId &LastId, Consumer &C) {
  using namespace wire;
  EventRecord E;
  switch (static_cast<EventKind>(Tag & TagKindMask)) {
  case EventKind::Alloc:
    if (Tag & AllocSpareMask)
      return Verdict::SpareBits;
    E.Kind = static_cast<std::uint8_t>(EventKind::Alloc);
    E.Flags = (Tag & AllocIsArrayBit) ? 1 : 0;
    E.Sub = static_cast<std::uint8_t>((Tag >> AllocKindShift) & 0x3);
    E.Time = LastTime + static_cast<std::uint64_t>(R.svar());
    E.Id = readId<Delta>(R, LastId);
    E.Arg0 = R.uvar();
    E.Arg1 = R.uvar();
    E.Site = static_cast<SiteId>(R.uvar32() - 1);
    return deliver(R, E, LastTime, C);
  case EventKind::Use:
    if (Tag & UseSpareMask)
      return Verdict::SpareBits;
    E.Sub = static_cast<std::uint8_t>((Tag >> UseKindShift) & 0x7);
    if (E.Sub == 7)
      return Verdict::UseKind7;
    E.Kind = static_cast<std::uint8_t>(EventKind::Use);
    E.Flags = (Tag & UseDuringInitBit) ? 1 : 0;
    E.Time = LastTime + static_cast<std::uint64_t>(R.svar());
    E.Id = readId<Delta>(R, LastId);
    E.Site = static_cast<SiteId>(R.uvar32() - 1);
    return deliver(R, E, LastTime, C);
  case EventKind::GCEnd:
    if (Tag & ~TagKindMask)
      return Verdict::SpareBits;
    E.Kind = static_cast<std::uint8_t>(EventKind::GCEnd);
    E.Time = LastTime + static_cast<std::uint64_t>(R.svar());
    E.Arg0 = R.uvar();
    E.Arg1 = R.uvar();
    return deliver(R, E, LastTime, C);
  case EventKind::Collect:
  case EventKind::Survivor:
    if (Tag & ~TagKindMask)
      return Verdict::SpareBits;
    E.Kind = Tag;
    E.Time = LastTime + static_cast<std::uint64_t>(R.svar());
    E.Id = readId<Delta>(R, LastId);
    return deliver(R, E, LastTime, C);
  case EventKind::DeepGCEnd:
  case EventKind::Terminate:
  case EventKind::DefineSite: // never reaches here
    if (Tag & ~TagKindMask)
      return Verdict::SpareBits;
    E.Kind = Tag;
    E.Time = LastTime + static_cast<std::uint64_t>(R.svar());
    return deliver(R, E, LastTime, C);
  }
  return Verdict::Ok; // unreachable: the switch covers every 3-bit kind
}

template <bool Delta, class Consumer>
bool StreamDecoder::decodeBody(Consumer &C, const std::byte *Data,
                               std::size_t Size) {
  // Every chunk restarts the time-delta chain and the v7 id-delta chain.
  ByteTime LastTime = 0;
  vm::ObjectId LastId = 0;
  std::uint64_t Records = 0; // dispatched from this body
  std::size_t Off = 0;
  // Every failure happens at the record starting at Off, and leaves
  // through an out-of-line member that takes Off and Records by value:
  // capturing the loop's locals by reference measurably slowed the loop.
  while (Off < Size) {
    std::uint8_t Tag = std::to_integer<std::uint8_t>(Data[Off]);
    auto Kind = static_cast<EventKind>(Tag & wire::TagKindMask);

    if (Kind != EventKind::DefineSite &&
        Size - Off >= wire::MaxTimedRecordBytes) {
      // Room for any timed record: no per-byte bounds checks.
      wire::FastVarReader R{Data + Off + 1};
      Verdict V = timedRecord<Delta>(R, Tag, LastTime, LastId, C);
      if (V != Verdict::Ok)
        return reject(Off, Records, V, Kind);
      ++Records;
      Off += 1 + R.Off;
      continue;
    }

    if (Kind == EventKind::DefineSite) {
      SiteId Id = InvalidSite;
      std::size_t Len = readSite(Data, Size, Off, Records, Id);
      if (!Len)
        return false;
      C.onSite(Id, FrameScratch);
      ++Records;
      Off += Len;
      continue;
    }

    wire::VarReader R{Data + Off + 1, Size - Off - 1};
    Verdict V = timedRecord<Delta>(R, Tag, LastTime, LastId, C);
    if (V != Verdict::Ok)
      return reject(Off, Records, V, Kind);
    ++Records;
    Off += 1 + R.Off;
  }
  Events += Records;
  Bytes += Size;
  return true;
}

} // namespace jdrag::profiler

#endif // JDRAG_PROFILER_RECORDLOOP_H
