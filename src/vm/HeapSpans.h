//===- vm/HeapSpans.h - Page-span object storage ----------------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Page-span storage for HeapObject records (docs/heap.md). A span is a
/// fixed-size run of pages carved from a growable arena; every span
/// holds records of exactly one size class, tracked by per-span
/// allocation, mark, constructed and card bitmaps. Young and old
/// generations occupy disjoint span sets, so a minor collection's sweep
/// walks only young spans; the card bitmap over old spans is the
/// remembered set.
///
/// The store is deliberately policy-free: acquire/release/promote never
/// trigger GC, finalization or OOM. All collection policy -- and the
/// observable sweep ordering (handle order) -- lives in Heap (see
/// Heap::sweepSpans).
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_VM_HEAPSPANS_H
#define JDRAG_VM_HEAPSPANS_H

#include "vm/Heap.h"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace jdrag::vm {

/// One span: SpanPages contiguous pages of HeapObject records of a
/// single size class, plus the bitmaps that describe them. Record
/// payloads (the Slots vectors) live in each record's inline
/// std::vector and are recycled with the record, so the size class
/// governs which allocations inherit which recycled Slots capacity,
/// with the records themselves packed for cache-friendly sweeps.
struct HeapSpan {
  static constexpr std::size_t PageBytes = 4 * KB;
  static constexpr std::size_t SpanPages = 8;
  static constexpr std::size_t SpanBytes = PageBytes * SpanPages;
  static constexpr std::uint32_t RecordCount =
      static_cast<std::uint32_t>(SpanBytes / sizeof(HeapObject));
  static constexpr std::size_t BitmapWords = (RecordCount + 63) / 64;

  /// RecordCount records of raw arena storage; a record is constructed
  /// lazily on first acquire (CtorBits) and destroyed only when the
  /// store dies, so its Slots capacity survives recycling.
  HeapObject *Records = nullptr;
  std::uint64_t AllocBits[BitmapWords] = {}; ///< record is live
  std::uint64_t MarkBits[BitmapWords] = {};  ///< GC mark (sweep clears)
  std::uint64_t CardBits[BitmapWords] = {};  ///< remembered (old spans)
  std::uint64_t CtorBits[BitmapWords] = {};  ///< record constructed
  std::uint32_t Live = 0;    ///< set AllocBits population
  std::uint8_t SizeClass = 0;
  bool OldGen = false;       ///< member of the old span set
  bool Pooled = false;       ///< parked empty in the per-class pool

  /// Bits past RecordCount in the last bitmap word, reported as
  /// "allocated" so free-slot scans never hand them out.
  static constexpr std::uint64_t validMask(std::size_t Word) {
    std::size_t Low = Word * 64;
    if (Low + 64 <= RecordCount)
      return ~std::uint64_t(0);
    if (Low >= RecordCount)
      return 0;
    return (~std::uint64_t(0)) >> (64 - (RecordCount - Low));
  }

  static bool testBit(const std::uint64_t *Bits, std::uint32_t I) {
    return (Bits[I / 64] >> (I % 64)) & 1;
  }
  static void setBit(std::uint64_t *Bits, std::uint32_t I) {
    Bits[I / 64] |= std::uint64_t(1) << (I % 64);
  }
  static void clearBit(std::uint64_t *Bits, std::uint32_t I) {
    Bits[I / 64] &= ~(std::uint64_t(1) << (I % 64));
  }
};

/// Arena + span bookkeeping. Owns all record storage; Heap drives it.
class SpanStore {
public:
  SpanStore() = default;
  ~SpanStore();
  SpanStore(const SpanStore &) = delete;
  SpanStore &operator=(const SpanStore &) = delete;

  /// Acquires a reset record from a span of (\p SizeClass, \p Old),
  /// reusing a pooled empty span or carving a new one when no partially
  /// filled span of that flavor exists. Policy-free by contract.
  HeapObject *acquire(unsigned SizeClass, bool Old);

  /// Releases \p Obj's record back to its span: clears its alloc, mark
  /// and card bits and makes the slot (and its constructed Slots
  /// capacity) available for reuse. The record is NOT destroyed.
  void release(HeapObject &Obj);

  /// Moves \p Obj into an old-generation span of the same size class
  /// and releases its young slot. Returns the new record location; the
  /// caller owns re-pointing the handle table. The new record's card
  /// bit starts clear -- a freshly promoted object is NOT in the
  /// remembered set until a write barrier fires.
  HeapObject *promote(HeapObject &Obj);

  /// Mark-phase hook: mirrors Obj.Marked into the owning span's bitmap
  /// so the sweep can scan marks 64 records at a time.
  static void setMark(HeapObject &Obj) {
    HeapSpan::setBit(Obj.Owner->MarkBits, Obj.SpanSlot);
  }

  /// Card ops (old-generation records only). remember() is idempotent;
  /// RememberedCount tracks set bits, so Heap::rememberedSetSize() is
  /// the number of distinct remembered containers.
  void remember(HeapObject &Obj) {
    if (!HeapSpan::testBit(Obj.Owner->CardBits, Obj.SpanSlot)) {
      HeapSpan::setBit(Obj.Owner->CardBits, Obj.SpanSlot);
      ++RememberedCount;
    }
  }
  std::uint64_t rememberedCount() const { return RememberedCount; }

  /// The generation-segregated span sets Heap's sweep iterates.
  std::vector<HeapSpan *> &youngSpans() { return YoungSet; }
  std::vector<HeapSpan *> &oldSpans() { return OldSet; }

  /// Detaches fully-empty spans from the young set (and the old set
  /// when \p IncludeOld) into the per-class pool. Pooled spans keep
  /// their constructed records, so reactivation recycles their Slots
  /// capacity; detaching them shrinks the sets every sweep and card
  /// scan walks, and with them the remembered set's card storage.
  void parkEmptySpans(bool IncludeOld);

  std::size_t pooledSpanCount() const;
  void fillOccupancy(HeapOccupancy &O) const;

private:
  HeapSpan *spanFor(unsigned SizeClass, bool Old);
  HeapSpan *carveSpan();

  /// Spans per arena block: one block = 8 spans = 256 KB of records.
  static constexpr std::size_t SpansPerBlock = 8;

  std::vector<std::unique_ptr<std::byte[]>> Blocks;
  std::size_t NextCarve = SpansPerBlock; ///< spans used in Blocks.back()
  std::vector<std::unique_ptr<HeapSpan>> AllSpans;
  std::vector<HeapSpan *> YoungSet, OldSet;
  /// Per-(generation, class) stacks of spans with at least one free
  /// slot. Entries are validated lazily on pop (a span may have been
  /// pooled, refilled or re-flavored since it was pushed).
  std::vector<HeapSpan *> FreeSpans[2][Heap::NumSizeClasses];
  /// Empty spans parked by class, ready for either generation.
  std::vector<HeapSpan *> Pool[Heap::NumSizeClasses];
  std::uint64_t RememberedCount = 0;
};

} // namespace jdrag::vm

#endif // JDRAG_VM_HEAPSPANS_H
