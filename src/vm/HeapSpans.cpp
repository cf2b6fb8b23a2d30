//===- vm/HeapSpans.cpp ---------------------------------------------------===//

#include "vm/HeapSpans.h"

#include <cassert>
#include <utility>

using namespace jdrag;
using namespace jdrag::vm;

static_assert(HeapSpan::RecordCount >= 64,
              "a span must hold a meaningful number of records");

SpanStore::~SpanStore() {
  // Destroy every record ever constructed (live or recycled); the
  // arena bytes themselves go with Blocks.
  for (const std::unique_ptr<HeapSpan> &SP : AllSpans) {
    HeapSpan *S = SP.get();
    for (std::size_t W = 0; W != HeapSpan::BitmapWords; ++W) {
      std::uint64_t Ctor = S->CtorBits[W];
      while (Ctor) {
        std::uint32_t Slot =
            static_cast<std::uint32_t>(W * 64 + std::countr_zero(Ctor));
        Ctor &= Ctor - 1;
        S->Records[Slot].~HeapObject();
      }
    }
  }
}

HeapSpan *SpanStore::carveSpan() {
  if (NextCarve == SpansPerBlock) {
    // Default-initialized, not zeroed (make_unique would memset the
    // whole block): a record is constructed on its first acquire, so a
    // block's pages are touched, and resident, only as its spans fill.
    Blocks.push_back(std::unique_ptr<std::byte[]>(
        new std::byte[SpansPerBlock * HeapSpan::SpanBytes]));
    NextCarve = 0;
  }
  auto S = std::make_unique<HeapSpan>();
  S->Records = reinterpret_cast<HeapObject *>(
      Blocks.back().get() + NextCarve * HeapSpan::SpanBytes);
  ++NextCarve;
  AllSpans.push_back(std::move(S));
  return AllSpans.back().get();
}

HeapSpan *SpanStore::spanFor(unsigned SizeClass, bool Old) {
  std::vector<HeapSpan *> &Free = FreeSpans[Old][SizeClass];
  while (!Free.empty()) {
    HeapSpan *S = Free.back();
    // Lazy validation: drop entries whose span was pooled, re-flavored
    // or filled since it was pushed.
    if (S->Pooled || S->OldGen != Old || S->SizeClass != SizeClass ||
        S->Live == HeapSpan::RecordCount) {
      Free.pop_back();
      continue;
    }
    return S;
  }
  HeapSpan *S;
  if (!Pool[SizeClass].empty()) {
    S = Pool[SizeClass].back();
    Pool[SizeClass].pop_back();
    S->Pooled = false;
  } else {
    S = carveSpan();
    S->SizeClass = static_cast<std::uint8_t>(SizeClass);
  }
  S->OldGen = Old;
  (Old ? OldSet : YoungSet).push_back(S);
  Free.push_back(S);
  return S;
}

HeapObject *SpanStore::acquire(unsigned SizeClass, bool Old) {
  HeapSpan *S = spanFor(SizeClass, Old);
  std::uint32_t Slot = 0;
  for (std::size_t W = 0;; ++W) {
    assert(W != HeapSpan::BitmapWords && "spanFor returned a full span");
    std::uint64_t FreeBits = ~S->AllocBits[W] & HeapSpan::validMask(W);
    if (FreeBits) {
      Slot = static_cast<std::uint32_t>(W * 64 + std::countr_zero(FreeBits));
      break;
    }
  }
  HeapSpan::setBit(S->AllocBits, Slot);
  ++S->Live;
  // spanFor left S on top of its free stack; pop it eagerly once full
  // (lazy validation would catch it anyway).
  std::vector<HeapSpan *> &Free = FreeSpans[Old][SizeClass];
  if (S->Live == HeapSpan::RecordCount && !Free.empty() && Free.back() == S)
    Free.pop_back();
  HeapObject *Obj = S->Records + Slot;
  if (HeapSpan::testBit(S->CtorBits, Slot)) {
    Obj->resetProfileState();
  } else {
    new (Obj) HeapObject();
    HeapSpan::setBit(S->CtorBits, Slot);
  }
  Obj->Owner = S;
  Obj->SpanSlot = Slot;
  return Obj;
}

void SpanStore::release(HeapObject &Obj) {
  HeapSpan *S = Obj.Owner;
  std::uint32_t Slot = Obj.SpanSlot;
  assert(S && HeapSpan::testBit(S->AllocBits, Slot) && "double release");
  if (S->OldGen && HeapSpan::testBit(S->CardBits, Slot)) {
    HeapSpan::clearBit(S->CardBits, Slot);
    --RememberedCount;
  }
  HeapSpan::clearBit(S->MarkBits, Slot);
  HeapSpan::clearBit(S->AllocBits, Slot);
  if (S->Live-- == HeapSpan::RecordCount)
    FreeSpans[S->OldGen][S->SizeClass].push_back(S);
}

HeapObject *SpanStore::promote(HeapObject &Obj) {
  HeapSpan *Src = Obj.Owner;
  assert(Src && !Src->OldGen && "promotion source must be a young record");
  HeapObject *Dst = acquire(Src->SizeClass, /*Old=*/true);
  // Move the record wholesale, then restore the destination's own span
  // back references (the move copied the source's) -- Self is the same
  // handle either side, so it moves correctly.
  HeapSpan *DstSpan = Dst->Owner;
  std::uint32_t DstSlot = Dst->SpanSlot;
  *Dst = std::move(Obj);
  Dst->Owner = DstSpan;
  Dst->SpanSlot = DstSlot;
  release(Obj);
  return Dst;
}

void SpanStore::parkEmptySpans(bool IncludeOld) {
  auto Park = [&](std::vector<HeapSpan *> &Set) {
    auto Out = Set.begin();
    for (HeapSpan *S : Set) {
      if (S->Live == 0) {
        S->Pooled = true;
        Pool[S->SizeClass].push_back(S);
      } else {
        *Out++ = S;
      }
    }
    Set.erase(Out, Set.end());
  };
  Park(YoungSet);
  if (IncludeOld)
    Park(OldSet);
}

std::size_t SpanStore::pooledSpanCount() const {
  std::size_t N = 0;
  for (const std::vector<HeapSpan *> &P : Pool)
    N += P.size();
  return N;
}

void SpanStore::fillOccupancy(HeapOccupancy &O) const {
  O.YoungSpans = YoungSet.size();
  O.OldSpans = OldSet.size();
  O.PooledSpans = pooledSpanCount();
  O.RecordsPerSpan = HeapSpan::RecordCount;
  O.SpanBytes = HeapSpan::SpanBytes;
  O.RememberedEntries = static_cast<std::size_t>(RememberedCount);
  O.RememberedCapacity = OldSet.size() * HeapSpan::RecordCount;
  // One row per (generation, size class) pair that owns spans.
  HeapOccupancyRow Rows[2][Heap::NumSizeClasses] = {};
  auto Accumulate = [&](const std::vector<HeapSpan *> &Set, bool Old) {
    for (const HeapSpan *S : Set) {
      HeapOccupancyRow &R = Rows[Old][S->SizeClass];
      ++R.Spans;
      R.LiveRecords += S->Live;
      R.FreeRecords += HeapSpan::RecordCount - S->Live;
    }
  };
  Accumulate(YoungSet, false);
  Accumulate(OldSet, true);
  for (unsigned Old = 0; Old != 2; ++Old)
    for (unsigned C = 0; C != Heap::NumSizeClasses; ++C)
      if (Rows[Old][C].Spans) {
        Rows[Old][C].SizeClass = C;
        Rows[Old][C].Old = Old != 0;
        O.Rows.push_back(Rows[Old][C]);
      }
}
