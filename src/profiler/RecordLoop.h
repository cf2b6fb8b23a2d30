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
/// same constants. The v8 loop is instantiated per final consumer; the
/// legacy loops of v3-v6 (absolute ids) and v7 (delta ids) only once
/// each, in profiler/LegacyStream.cpp.
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
// instead of five; so is a v8 trailer's class index (an array's is
// invalid).
//
// A v8 Collect/Survivor record, after its tag byte:
//
//   svar time delta, svar id delta, uvar bytes, uvar class + 1,
//   uvar alloc site + 1, svar alloc time delta, uvar use count,
//   uvar last-use site + 1; with a use count,
//     svar (last-use time - alloc time), svar last-use boundary delta;
//   and with the used-outside-init tag bit,
//     svar (first-use time - alloc time), svar first-use boundary delta.
//
// The alloc time and the boundaries are deltas against chains of their
// own, restarting at zero in each chunk like the others: the alloc time
// against the previous record's, the boundary against the previous
// boundary. A GC reclaims objects in handle order, which is close to
// reverse allocation order, so consecutive records' alloc times (and
// ids) step by the object sizes (and by one) and repeat as the program
// loops, which LZ finds; and the objects a chunk ends mostly share one
// deep-GC interval, so the boundary delta is almost always 0. Use times
// are signed against the alloc time so a decoder can see one that
// precedes it.

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
// v8 Collect/Survivor tag: bit 3 = array, bits 4-6 = array kind (values
// past ir::ArrayKind::Ref are malformed), bit 7 = used outside init.
inline constexpr std::uint8_t TrailerIsArrayBit = 0x08;
inline constexpr std::uint8_t TrailerKindShift = 4;
inline constexpr std::uint8_t TrailerKindMask = 0x7;
inline constexpr std::uint8_t TrailerOutsideInitBit = 0x80;

/// Upper bound on any encoded timed (non-site) varint record: a v8
/// trailer's tag + 12 varints. With at least this much of the body left,
/// a record decode can skip every per-byte bounds check (the loop's
/// fast path).
inline constexpr std::size_t MaxTimedRecordBytes = 1 + 12 * MaxVarintBytes;

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
template <WireFormat F, class Reader>
[[gnu::always_inline]] inline vm::ObjectId readId(Reader &R,
                                                  vm::ObjectId &Last) {
  if constexpr (F >= WireFormat::V7)
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
                                WireFormat::V8>) {}

template <class Reader, class Consumer>
StreamDecoder::Verdict StreamDecoder::deliver(const Reader &R,
                                              const EventRecord &E,
                                              DeltaChains &Ch,
                                              Consumer &C) {
  // Malformation wins over a cut: Bad never depends on the bytes past
  // the end of the body.
  if (R.Bad)
    return Verdict::BadVarint;
  if (R.Short)
    return Verdict::Cut;
  Ch.Time = E.Time;
  C.onEvent(E);
  return Verdict::Ok;
}

/// Decodes the trailer fields of a v8 Collect/Survivor record into
/// \p E, whose time, id and kind are read. The use fields the record
/// does not have read as the alloc time. The trailer is judged only
/// once all its varints read whole: a malformed or cut-off one is left
/// to deliver(), so BadVarint and Cut win over these verdicts. A
/// trailer that passes keeps alloc <= boundary-or-use <= record time
/// and first use <= last use, so every lifetime phase a consumer
/// derives from it, snapped or not, is non-negative.
template <class Reader>
StreamDecoder::Verdict StreamDecoder::trailer(Reader &R, std::uint8_t Tag,
                                              DeltaChains &Ch,
                                              EventRecord &E) {
  using namespace wire;
  bool OutsideInit = Tag & TrailerOutsideInitBit;
  E.Sub = static_cast<std::uint8_t>((Tag >> TrailerKindShift) &
                                    TrailerKindMask);
  E.Flags = static_cast<std::uint8_t>(
      ((Tag & TrailerIsArrayBit) ? RecordIsArray : 0) |
      (OutsideInit ? RecordUsedOutsideInit : 0));
  E.Arg0 = R.uvar();
  E.Arg1 = static_cast<std::uint32_t>(R.uvar32() - 1);
  E.Site = static_cast<SiteId>(R.uvar32() - 1);
  E.AllocTime = Ch.Alloc += static_cast<std::uint64_t>(R.svar());
  E.UseCount = R.uvar32();
  E.LastUseSite = static_cast<SiteId>(R.uvar32() - 1);
  E.FirstUseTime = E.FirstUseBoundary = E.AllocTime;
  E.LastUseTime = E.LastUseBoundary = E.AllocTime;
  // The signed use-time offsets, judged after the reads.
  std::int64_t Last = 0, First = 0;
  if (E.UseCount) {
    Last = R.svar();
    E.LastUseTime = E.AllocTime + static_cast<std::uint64_t>(Last);
    E.LastUseBoundary = Ch.Boundary += static_cast<std::uint64_t>(R.svar());
  }
  if (OutsideInit) {
    First = R.svar();
    E.FirstUseTime = E.AllocTime + static_cast<std::uint64_t>(First);
    E.FirstUseBoundary = Ch.Boundary += static_cast<std::uint64_t>(R.svar());
  }
  if (R.Bad || R.Short)
    return Verdict::Ok;
  if (E.Sub > static_cast<std::uint8_t>(ir::ArrayKind::Ref))
    return Verdict::BadArrayKind;
  if (E.AllocTime > E.Time)
    return Verdict::AllocAfterEnd;
  if (!E.UseCount && (E.LastUseSite != InvalidSite || OutsideInit))
    return Verdict::UnusedWithSite;
  if (Last < 0 || First < 0)
    return Verdict::UseBeforeAlloc;
  if (E.LastUseTime > E.Time)
    return Verdict::UseAfterEnd;
  if (E.LastUseBoundary > E.LastUseTime ||
      E.FirstUseBoundary > E.FirstUseTime)
    return Verdict::BoundaryAfterUse;
  if (OutsideInit && (E.FirstUseTime > E.LastUseTime ||
                      E.FirstUseBoundary > E.LastUseBoundary))
    return Verdict::FirstAfterLast;
  return Verdict::Ok;
}

/// Decodes the fields after the tag byte of one timed record, its time
/// delta taken against the time chain of \p Ch and (from v7) its id
/// delta against the id chain, and hands the record to \p C. Every kind
/// delivers from its own case, so the kind is a constant there and an
/// inlined onEvent's own switch on it folds away. Instantiated for both
/// readers: FastVarReader where the whole record is known to be in
/// range, VarReader near the end of a body. \p F is the record layout:
/// V8, or the legacy V7 or V6 (read for v3-v6), whose Alloc and Use
/// records v8 rejects and whose Collect/Survivor carry no trailer.
template <WireFormat F, class Reader, class Consumer>
StreamDecoder::Verdict
StreamDecoder::timedRecord(Reader &R, std::uint8_t Tag, DeltaChains &Ch,
                           Consumer &C) {
  using namespace wire;
  constexpr bool V8 = F == WireFormat::V8;
  EventRecord E;
  switch (static_cast<EventKind>(Tag & TagKindMask)) {
  case EventKind::Alloc:
    if constexpr (V8)
      return Verdict::LegacyKind;
    if (Tag & AllocSpareMask)
      return Verdict::SpareBits;
    E.Kind = static_cast<std::uint8_t>(EventKind::Alloc);
    E.Flags = (Tag & AllocIsArrayBit) ? 1 : 0;
    E.Sub = static_cast<std::uint8_t>((Tag >> AllocKindShift) & 0x3);
    E.Time = Ch.Time + static_cast<std::uint64_t>(R.svar());
    E.Id = readId<F>(R, Ch.Id);
    E.Arg0 = R.uvar();
    E.Arg1 = R.uvar();
    E.Site = static_cast<SiteId>(R.uvar32() - 1);
    return deliver(R, E, Ch, C);
  case EventKind::Use:
    if constexpr (V8)
      return Verdict::LegacyKind;
    if (Tag & UseSpareMask)
      return Verdict::SpareBits;
    E.Sub = static_cast<std::uint8_t>((Tag >> UseKindShift) & 0x7);
    if (E.Sub == 7)
      return Verdict::UseKind7;
    E.Kind = static_cast<std::uint8_t>(EventKind::Use);
    E.Flags = (Tag & UseDuringInitBit) ? 1 : 0;
    E.Time = Ch.Time + static_cast<std::uint64_t>(R.svar());
    E.Id = readId<F>(R, Ch.Id);
    E.Site = static_cast<SiteId>(R.uvar32() - 1);
    return deliver(R, E, Ch, C);
  case EventKind::GCEnd:
    if (Tag & ~TagKindMask)
      return Verdict::SpareBits;
    E.Kind = static_cast<std::uint8_t>(EventKind::GCEnd);
    E.Time = Ch.Time + static_cast<std::uint64_t>(R.svar());
    E.Arg0 = R.uvar();
    E.Arg1 = R.uvar();
    return deliver(R, E, Ch, C);
  case EventKind::Collect:
  case EventKind::Survivor:
    if (!V8 && (Tag & ~TagKindMask))
      return Verdict::SpareBits;
    E.Kind = Tag & TagKindMask;
    E.Time = Ch.Time + static_cast<std::uint64_t>(R.svar());
    E.Id = readId<F>(R, Ch.Id);
    if constexpr (V8)
      if (Verdict V = trailer(R, Tag, Ch, E); V != Verdict::Ok)
        return V;
    return deliver(R, E, Ch, C);
  case EventKind::DeepGCEnd:
  case EventKind::Terminate:
  case EventKind::DefineSite: // never reaches here
    if (Tag & ~TagKindMask)
      return Verdict::SpareBits;
    E.Kind = Tag;
    E.Time = Ch.Time + static_cast<std::uint64_t>(R.svar());
    return deliver(R, E, Ch, C);
  }
  return Verdict::Ok; // unreachable: the switch covers every 3-bit kind
}

template <WireFormat F, class Consumer>
bool StreamDecoder::decodeBody(Consumer &C, const std::byte *Data,
                               std::size_t Size) {
  // Every chunk restarts its delta chains.
  DeltaChains Ch;
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
      Verdict V = timedRecord<F>(R, Tag, Ch, C);
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
    Verdict V = timedRecord<F>(R, Tag, Ch, C);
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
