//===- vm/Heap.cpp --------------------------------------------------------===//

#include "vm/Heap.h"

#include "vm/EventEmitter.h"
#include "vm/HeapSpans.h"

#include <algorithm>
#include <iterator>

using namespace jdrag;
using namespace jdrag::vm;

RootSource::~RootSource() = default;

namespace {
constexpr const char *UseKindNames[] = {
    "getfield", "putfield", "invoke", "monitor", "array", "native", "throw",
};
static_assert(std::size(UseKindNames) == NumUseKinds,
              "name every UseKind enumerator");
} // namespace

const char *jdrag::vm::useKindName(UseKind K) {
  auto I = static_cast<std::size_t>(K);
  return I < NumUseKinds ? UseKindNames[I] : "?";
}

Heap::Heap(const ir::Program &P)
    : P(P), Store(std::make_unique<SpanStore>()) {
  Templates.resize(P.Classes.size());
}

Heap::~Heap() = default; // SpanStore owns and destroys every record

HeapObject *Heap::spanAcquire(unsigned SizeClass) {
  return Store->acquire(SizeClass, /*Old=*/false);
}

void Heap::rememberContainer(HeapObject &Obj) { Store->remember(Obj); }

std::size_t Heap::rememberedSetSize() const {
  return static_cast<std::size_t>(Store->rememberedCount());
}

void Heap::buildTemplate(ir::ClassId C, const ir::ClassInfo &CI,
                         ClassTemplate &T) {
  // Default (Int 0) slots overlaid with the declared kind's zero,
  // walking the super chain.
  T.ZeroSlots.resize(CI.NumInstanceSlots);
  for (ir::ClassId Cur = C; Cur.isValid(); Cur = P.classOf(Cur).Super)
    for (ir::FieldId F : P.classOf(Cur).DeclaredInstanceFields) {
      const ir::FieldInfo &FI = P.fieldOf(F);
      T.ZeroSlots[FI.Slot] = Value::zeroOf(FI.Kind);
    }
  T.Built = true;
}

void Heap::removeRootSource(RootSource *S) {
  RootSources.erase(std::remove(RootSources.begin(), RootSources.end(), S),
                    RootSources.end());
}

void Heap::mark(Handle H, std::vector<Handle> &Stack) {
  if (H.isNull() || !isLive(H))
    return;
  HeapObject &Obj = object(H);
  if (Obj.Marked)
    return;
  Obj.Marked = true;
  SpanStore::setMark(Obj); // mirror into the span bitmap for the sweep
  Stack.push_back(H);
}

GCStats Heap::collect() {
  ++GCCount;
  GCStats Stats;

  // Mark phase. The worklist lives across collections (see Heap.h);
  // topping the reserve up to the handle-table size bounds it above by
  // the live-object count, so marking never reallocates mid-phase.
  std::vector<Handle> &Stack = MarkStack;
  Stack.clear();
  if (Stack.capacity() < Table.size())
    Stack.reserve(Table.size());
  auto Visit = [&](Handle H) { mark(H, Stack); };
  for (RootSource *S : RootSources)
    S->visitRoots(Visit);
  for (Handle H : PendingQueue)
    mark(H, Stack);

  while (!Stack.empty()) {
    Handle H = Stack.back();
    Stack.pop_back();
    HeapObject &Obj = object(H);
    if (Obj.isArray()) {
      if (Obj.AKind == ir::ArrayKind::Ref)
        for (const Value &V : Obj.Slots)
          mark(V.asRef(), Stack);
      continue;
    }
    for (const Value &V : Obj.Slots)
      if (V.Kind == ir::ValueKind::Ref)
        mark(V.asRef(), Stack);
  }

  // Sweep phase. Unreachable-but-finalizable objects get resurrected
  // onto the pending queue (their finalizers have not run yet). The
  // reachable totals are NOT re-accumulated object by object: every
  // survivor stays in LiveObjects/LiveBytes (maintained at allocate and
  // free), so the sweep's per-object bookkeeping reduces to clearing
  // the mark bit. Dead candidates funnel through reclaimOrResurrect in
  // ascending handle-index order (the observable contract; docs/heap.md).
  sweepSpans(Stats, /*Minor=*/false);
  Stats.ReachableObjects = LiveObjects;
  Stats.ReachableBytes = LiveBytes;

  if (Emitter)
    Emitter->gcEnd(AllocatedTotal, Stats.ReachableBytes,
                   Stats.ReachableObjects);
  return Stats;
}

void Heap::reclaimOrResurrect(std::uint32_t Index, GCStats &Stats) {
  HeapObject *Obj = Table[Index];
  bool HasFinalizer = !Obj->isArray() &&
                      P.classOf(Obj->Class).Finalizer.isValid() &&
                      !Obj->Finalized;
  if (HasFinalizer && !Obj->PendingFinalize) {
    // Survives this cycle.
    Obj->PendingFinalize = true;
    PendingQueue.push_back(Handle(Index));
    ++Stats.NewlyFinalizable;
    return;
  }
  if (Obj->PendingFinalize && !Obj->Finalized)
    return; // still waiting for its finalizer to run; keep it
  ++Stats.FreedObjects;
  Stats.FreedBytes += Obj->AccountedBytes;
  if (Emitter && Obj->Traced)
    Emitter->collect(*Obj, AllocatedTotal);
  free(Index);
}

void Heap::sweepSpans(GCStats &Stats, bool Minor) {
  // Pass 1: scan span bitmaps. Survivors are handled in place (clear
  // the mark; on a minor cycle age and, past PromoteAge, move to an old
  // span). Dead candidates are only GATHERED here -- running the
  // reclaim protocol in span order would reorder events, finalizer
  // queueing and handle reuse relative to handle order. Promotion appends to the old span set, which this pass never
  // iterates on a minor cycle (and a major cycle never promotes), so
  // the sets are stable under iteration.
  DeadScratch.clear();
  auto SweepSet = [&](const std::vector<HeapSpan *> &Set) {
    for (HeapSpan *S : Set) {
      for (std::size_t W = 0; W != HeapSpan::BitmapWords; ++W) {
        std::uint64_t Alloc = S->AllocBits[W];
        std::uint64_t MarkedBits = S->MarkBits[W] & Alloc;
        S->MarkBits[W] = 0;
        if (!Alloc)
          continue;
        std::uint64_t Dead = Alloc & ~MarkedBits;
        while (MarkedBits) {
          std::uint32_t Slot = static_cast<std::uint32_t>(
              W * 64 + std::countr_zero(MarkedBits));
          MarkedBits &= MarkedBits - 1;
          HeapObject &Obj = S->Records[Slot];
          Obj.Marked = false;
          if (Minor && ++Obj.Age >= Gen.PromoteAge) {
            Obj.Old = true;
            HeapObject *Moved = Store->promote(Obj);
            Table[Moved->Self] = Moved;
          }
        }
        while (Dead) {
          std::uint32_t Slot =
              static_cast<std::uint32_t>(W * 64 + std::countr_zero(Dead));
          Dead &= Dead - 1;
          DeadScratch.push_back(S->Records[Slot].Self);
        }
      }
    }
  };
  SweepSet(Store->youngSpans());
  if (!Minor)
    SweepSet(Store->oldSpans());

  // Pass 2: restore the handle table's ordering authority, then run the
  // per-candidate protocol.
  std::sort(DeadScratch.begin(), DeadScratch.end());
  for (std::uint32_t Index : DeadScratch)
    reclaimOrResurrect(Index, Stats);

  // Park fully-empty spans for reuse: keeps future sweeps and card
  // scans proportional to occupied spans, and releases the remembered
  // set's card storage after a burst of old containers dies.
  Store->parkEmptySpans(/*IncludeOld=*/!Minor);
}

void Heap::markYoung(Handle H, std::vector<Handle> &Stack) {
  if (H.isNull() || !isLive(H))
    return;
  HeapObject &Obj = object(H);
  if (Obj.Marked || Obj.Old)
    return; // old objects are covered by the remembered set
  Obj.Marked = true;
  SpanStore::setMark(Obj); // mirror into the span bitmap for the sweep
  Stack.push_back(H);
}

GCStats Heap::collectMinor() {
  ++GCCount;
  ++MinorGCCount;
  GCStats Stats;
  Stats.Minor = true;

  // Mark young objects reachable from the roots and from remembered
  // old objects' reference slots.
  std::vector<Handle> &Stack = MarkStack;
  Stack.clear();
  if (Stack.capacity() < Table.size())
    Stack.reserve(Table.size());
  auto Visit = [&](Handle H) { markYoung(H, Stack); };
  for (RootSource *S : RootSources)
    S->visitRoots(Visit);
  for (Handle H : PendingQueue)
    markYoung(H, Stack);
  // Remembered-set scan in card order. The order cannot be observed:
  // marking is an order-insensitive fixed point and only the sweep
  // emits events.
  auto ScanRemembered = [&](const HeapObject &Old) {
    if (Old.isArray()) {
      if (Old.AKind == ir::ArrayKind::Ref)
        for (const Value &V : Old.Slots)
          markYoung(V.asRef(), Stack);
      return;
    }
    for (const Value &V : Old.Slots)
      if (V.Kind == ir::ValueKind::Ref)
        markYoung(V.asRef(), Stack);
  };
  // Card bits are cleared on free, so every set bit is a live old
  // container -- no dead-entry skip needed.
  for (const HeapSpan *S : Store->oldSpans())
    for (std::size_t W = 0; W != HeapSpan::BitmapWords; ++W) {
      std::uint64_t Cards = S->CardBits[W] & S->AllocBits[W];
      while (Cards) {
        std::uint32_t Slot =
            static_cast<std::uint32_t>(W * 64 + std::countr_zero(Cards));
        Cards &= Cards - 1;
        ScanRemembered(S->Records[Slot]);
      }
    }

  while (!Stack.empty()) {
    Handle H = Stack.back();
    Stack.pop_back();
    HeapObject &Obj = object(H);
    if (Obj.isArray()) {
      if (Obj.AKind == ir::ArrayKind::Ref)
        for (const Value &V : Obj.Slots)
          markYoung(V.asRef(), Stack);
      continue;
    }
    for (const Value &V : Obj.Slots)
      if (V.Kind == ir::ValueKind::Ref)
        markYoung(V.asRef(), Stack);
  }

  // Sweep the nursery; age and promote survivors. Like collect(), the
  // reachable totals come from the maintained LiveObjects/LiveBytes
  // counters after the frees, not from per-object accumulation. The
  // sweep touches only young spans -- the point of the
  // generation-segregated span sets (a handle-table walk would visit
  // the whole heap no matter how small the nursery is).
  sweepSpans(Stats, /*Minor=*/true);
  Stats.ReachableObjects = LiveObjects;
  Stats.ReachableBytes = LiveBytes;

  if (Emitter)
    Emitter->gcEnd(AllocatedTotal, Stats.ReachableBytes,
                   Stats.ReachableObjects);
  return Stats;
}

void Heap::maybeScheduledGC() {
  if (!Gen.Enabled)
    return;
  if (AllocatedTotal - LastScheduledGC < Gen.NurseryBytes)
    return;
  LastScheduledGC = AllocatedTotal;
  if (Gen.MajorEveryNMinors &&
      MinorGCCount % Gen.MajorEveryNMinors == Gen.MajorEveryNMinors - 1) {
    ++MinorGCCount; // keep the minor/major cadence advancing
    collect();
    return;
  }
  collectMinor();
}

void Heap::finishFinalization() {
  for (Handle H : PendingQueue)
    if (isLive(H)) {
      object(H).Finalized = true;
      object(H).PendingFinalize = false;
    }
  PendingQueue.clear();
}

void Heap::free(std::uint32_t Index) {
  HeapObject *Obj = Table[Index];
  LiveBytes -= Obj->AccountedBytes;
  --LiveObjects;
  // Returns the record (and its card/mark bits) to its span; the record
  // stays constructed so its Slots capacity is recycled.
  Store->release(*Obj);
  Table[Index] = nullptr;
  FreeHandles.push_back(Index);
}

HeapOccupancy Heap::occupancy() const {
  HeapOccupancy O;
  O.HandleSlots = Table.size();
  O.FreeHandleSlots = FreeHandles.size();
  Store->fillOccupancy(O);
  return O;
}

void Heap::forEachLiveObject(
    support::FunctionRef<void(Handle, const HeapObject &)> Fn) const {
  for (std::uint32_t Index = 0, E = static_cast<std::uint32_t>(Table.size());
       Index != E; ++Index)
    if (const HeapObject *Obj = Table[Index])
      Fn(Handle(Index), *Obj);
}
