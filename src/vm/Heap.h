//===- vm/Heap.h - Handle-based heap with mark-sweep GC ---------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap substrate: a handle table of objects, a byte clock (the
/// paper's time unit: bytes allocated since program start), accounted
/// sizes (8-byte header, 8-byte alignment, handle and trailer excluded),
/// stop-the-world mark-sweep GC over registered root sources, and the
/// finalization protocol the deep GC relies on: an unreachable object
/// whose class has a finalizer is resurrected onto a pending queue, its
/// finalizer runs (driven by the VM), and the next GC reclaims it.
///
/// Object storage is page spans (docs/heap.md): fixed-size page runs
/// carved from a growable arena, each holding HeapObject records of one
/// size class under per-span allocation/mark bitmaps. Reclaimed records
/// stay in their span and are recycled with their Slots capacity (the
/// tcmalloc idea: storage bucketed by size is reused without touching
/// the system allocator), and instance zeroing copies a per-class
/// precomputed slot template instead of walking the super chain per
/// allocation (docs/vm-hotpath.md). Young and old generations live in
/// disjoint span sets, so a minor sweep touches only young spans, and
/// the remembered set is a card-style bitmap over old spans. The handle
/// table stays the sweep-ordering authority: spans only accelerate
/// storage and dead-object discovery.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_VM_HEAP_H
#define JDRAG_VM_HEAP_H

#include "ir/Program.h"
#include "support/FunctionRef.h"
#include "support/Units.h"
#include "vm/Events.h"
#include "vm/Value.h"

#include <bit>
#include <memory>
#include <vector>

namespace jdrag::vm {

class EventEmitter;
struct HeapSpan;
class SpanStore;

/// A heap object: a plain instance (Slots = fields) or an array
/// (Slots = elements). Stored behind a handle. Promotion moves the
/// record from a young to an old span, with the handle table absorbing
/// the move (handles never change). Fields are ordered by size so the
/// record packs into 128 bytes.
class HeapObject {
public:
  ObjectId Id = 0;
  /// Serial of the innermost constructor frame active when this object
  /// was allocated (0 = none). While that frame is still live, uses of
  /// this object count as initialization uses: the paper treats an
  /// object whose "only use ... may be in its constructor" as
  /// never-used, and an object born inside its container's constructor
  /// is part of that initialization.
  std::uint64_t BirthCtorSerial = 0;
  std::vector<Value> Slots;
  /// The owning span and the record's slot index within it.
  HeapSpan *Owner = nullptr;

  // The object's trailer (paper section 2.1.1): kept here, on the
  // handle-side record, so AccountedBytes excludes it as the paper
  // specifies. Valid while Traced; fireAllocate starts it and every
  // use updates it, and the object's Collect/Survivor record carries it
  // (EventEmitter). A use time is the byte clock at the use; its epoch
  // counts the deep GCs finished before it, naming the deep-GC boundary
  // in force then (EventEmitter::deepGCEnd).
  ByteTime AllocTime = 0;
  ByteTime FirstUseTime = 0; ///< first use outside initialization
  ByteTime LastUseTime = 0;
  std::uint32_t FirstUseEpoch = 0;
  std::uint32_t LastUseEpoch = 0;
  std::uint32_t AllocSite = ~0u; ///< profiler::SiteId
  std::uint32_t LastUseSite = ~0u;
  std::uint32_t UseCount = 0;

  ir::ClassId Class;          ///< instance class; invalid for arrays
  std::uint32_t AccountedBytes = 0;
  std::uint32_t InitDepth = 0;   ///< active <init> frames on this object
  std::uint32_t MonitorCount = 0;
  std::uint32_t SpanSlot = 0;
  /// This object's own handle-table index. The handle table is the
  /// sweep-ordering authority; span sweeps gather dead candidates by
  /// bitmap and then process them in ascending Self order, so events,
  /// finalizer queueing and handle recycling follow handle order.
  std::uint32_t Self = 0;
  ir::ArrayKind AKind = ir::ArrayKind::Int; ///< valid if isArray()
  bool IsArray = false;
  bool Marked = false;
  bool PendingFinalize = false;  ///< sitting on the finalization queue
  bool Finalized = false;        ///< finalizer already ran
  bool Old = false;              ///< promoted to the old generation
  /// Selected by the allocation-sampling policy: only a sampled object's
  /// uses reach its trailer. Defaults true so exact mode and objects that
  /// never pass through fireAllocate behave as before: their uses still
  /// intern their sites.
  bool Sampled = true;
  /// The trailer is live: the object passed fireAllocate and was
  /// sampled. Only a traced object gets a Collect/Survivor record, so a
  /// VM-internal object (the preallocated OutOfMemoryError) gets none.
  bool Traced = false;
  bool UsedOutsideInit = false;  ///< trailer: some use outside init
  std::uint8_t Age = 0;          ///< minor collections survived

  bool isArray() const { return IsArray; }
  std::uint32_t arrayLength() const {
    return static_cast<std::uint32_t>(Slots.size());
  }

  /// Resets the per-lifetime profile/GC state a recycled record must not
  /// carry over from its previous occupant. The trailer fields are
  /// started by fireAllocate, and read only while Traced.
  void resetProfileState() {
    InitDepth = 0;
    BirthCtorSerial = 0;
    MonitorCount = 0;
    Marked = false;
    PendingFinalize = false;
    Finalized = false;
    Old = false;
    Sampled = true;
    Traced = false;
    Age = 0;
  }
};
static_assert(sizeof(HeapObject) <= 128,
              "the trailer fields must stay compact (span record count)");

/// Non-owning visitor for root enumeration: constructed from any
/// callable, two words, never allocates (see support/FunctionRef.h).
using HandleVisitor = support::FunctionRef<void(Handle)>;

/// Anything that can contribute GC roots (interpreter frames, statics,
/// native handle scopes).
class RootSource {
public:
  virtual ~RootSource();
  /// Calls \p Visit for every root handle (null handles are ignored).
  virtual void visitRoots(HandleVisitor Visit) = 0;
};

/// Result of one GC cycle.
struct GCStats {
  std::uint64_t FreedObjects = 0;
  std::uint64_t FreedBytes = 0;
  std::uint64_t ReachableObjects = 0;
  std::uint64_t ReachableBytes = 0;
  std::uint64_t NewlyFinalizable = 0;
  bool Minor = false; ///< nursery-only collection
};

/// One row of the --heap-stats occupancy dump: object-record usage for
/// a (generation, size class) pair, aggregated across that pair's spans.
struct HeapOccupancyRow {
  unsigned SizeClass = 0;
  bool Old = false;
  std::size_t Spans = 0;       ///< spans of this (gen, class)
  std::size_t LiveRecords = 0; ///< allocated object records
  std::size_t FreeRecords = 0; ///< recyclable span slots
};

/// Snapshot of heap occupancy for debugging/regression reports
/// (jdrag run --heap-stats). Purely informational; never consulted by
/// allocation or collection.
struct HeapOccupancy {
  std::size_t HandleSlots = 0;      ///< handle-table size
  std::size_t FreeHandleSlots = 0;  ///< recyclable handle indices
  std::size_t YoungSpans = 0;       ///< spans in the young set
  std::size_t OldSpans = 0;         ///< spans in the old set
  std::size_t PooledSpans = 0;      ///< empty spans parked for reuse
  std::size_t RecordsPerSpan = 0;   ///< object records per span
  std::size_t SpanBytes = 0;        ///< bytes per span
  /// Remembered-set occupancy: entries is the live old-container count
  /// (set card bits), capacity is the card-bit slots across old spans.
  /// Parking emptied spans after a major collection keeps capacity from
  /// staying pinned at a transient peak.
  std::size_t RememberedEntries = 0;
  std::size_t RememberedCapacity = 0;
  std::vector<HeapOccupancyRow> Rows;
};

/// Two-generation collection policy (paper section 4.2 runs the revised
/// benchmarks on HotSpot's generational collector, which "delays the
/// collection of some unreachable objects").
struct GenerationalConfig {
  bool Enabled = false;
  /// Nursery budget: a minor GC runs after this many allocated bytes.
  std::uint64_t NurseryBytes = 256 * KB;
  /// Minor collections an object must survive before promotion.
  std::uint8_t PromoteAge = 1;
  /// A full (major) collection every N minor ones.
  std::uint32_t MajorEveryNMinors = 16;
};

/// The handle-indirection heap.
class Heap {
public:
  explicit Heap(const ir::Program &P);
  ~Heap();
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  /// Sets the event emitter GC/collection events are streamed through
  /// (may be null).
  void setEmitter(EventEmitter *E) { Emitter = E; }

  /// Size classes bucket object records by ceil-log2 of the slot count:
  /// class K holds records whose Slots held up to 2^K values. Class 0
  /// covers 0..1 slots; the top class is open-ended. A span holds
  /// records of one class, so recycling a record reuses right-sized
  /// Slots capacity. Bit-scan form of the old linear search: for
  /// Slots >= 2, ceil(log2(Slots)) == bit_width(Slots - 1).
  static constexpr unsigned NumSizeClasses = 14;
  static unsigned sizeClassOf(std::size_t Slots) {
    if (Slots <= 1)
      return 0;
    unsigned C = static_cast<unsigned>(std::bit_width(Slots - 1));
    return C < NumSizeClasses ? C : NumSizeClasses - 1;
  }

  /// Allocates an instance of \p C with zeroed fields: a recycled span
  /// record, slot zeroing by template copy, counter bumps. Never fails
  /// (the byte budget is enforced by the VM, not here). Advances the
  /// clock. Inline so the interpreter's allocation fast path gets it.
  Handle allocateObject(ir::ClassId C) {
    const ir::ClassInfo &CI = P.classOf(C);
    HeapObject *Obj = spanAcquire(sizeClassOf(CI.NumInstanceSlots));
    Obj->Class = C;
    Obj->IsArray = false;
    Obj->AccountedBytes = CI.InstanceAccountedBytes;
    Obj->Id = NextObjectId++;
    Obj->Slots = zeroSlotsFor(C, CI);
    AllocatedTotal += Obj->AccountedBytes;
    LiveBytes += Obj->AccountedBytes;
    ++LiveObjects;
    return newHandle(Obj);
  }

  /// Allocates an array of \p Len elements of kind \p K, zeroed.
  Handle allocateArray(ir::ArrayKind K, std::uint32_t Len) {
    HeapObject *Obj = spanAcquire(sizeClassOf(Len));
    Obj->Class = ir::ClassId();
    Obj->IsArray = true;
    Obj->AKind = K;
    Obj->AccountedBytes = ir::Program::arrayAccountedBytes(K, Len);
    Obj->Id = NextObjectId++;
    Obj->Slots.assign(Len, Value::zeroOf(ir::elementValueKind(K)));
    AllocatedTotal += Obj->AccountedBytes;
    LiveBytes += Obj->AccountedBytes;
    ++LiveObjects;
    return newHandle(Obj);
  }

  /// Dereferences a handle. The handle must be live and non-null.
  HeapObject &object(Handle H) {
    assert(!H.isNull() && H.Index < Table.size() && Table[H.Index] &&
           "dangling or null handle");
    return *Table[H.Index];
  }
  const HeapObject &object(Handle H) const {
    assert(!H.isNull() && H.Index < Table.size() && Table[H.Index] &&
           "dangling or null handle");
    return *Table[H.Index];
  }

  /// True if \p H currently refers to a live object.
  bool isLive(Handle H) const {
    return !H.isNull() && H.Index < Table.size() && Table[H.Index] != nullptr;
  }

  /// Registers a root source; must outlive the heap or be removed.
  void addRootSource(RootSource *S) { RootSources.push_back(S); }
  void removeRootSource(RootSource *S);

  /// Runs a full stop-the-world mark-sweep collection. Unreachable
  /// objects with un-run finalizers are resurrected onto the pending
  /// finalization queue instead of being freed.
  GCStats collect();

  /// Enables/configures the two-generation policy.
  void setGenerational(GenerationalConfig C) { Gen = C; }
  const GenerationalConfig &generational() const { return Gen; }

  /// Nursery-only collection: marks from the root sources plus the
  /// remembered set (old objects that may reference young ones), sweeps
  /// unmarked *young* objects, and promotes survivors past PromoteAge.
  GCStats collectMinor();

  /// Scheduled-collection hook the interpreter calls after allocations:
  /// runs a minor (or every-Nth major) collection when the nursery
  /// budget is exhausted. No-op unless generational mode is enabled.
  void maybeScheduledGC();

  /// Bytes the program may allocate before maybeScheduledGC() could
  /// trigger a collection (~0ull when generational mode is off). One of
  /// the three inputs to the interpreter's allocation-slack fast path.
  std::uint64_t scheduledGCSlack() const {
    if (!Gen.Enabled)
      return ~0ull;
    std::uint64_t Used = AllocatedTotal - LastScheduledGC;
    return Used >= Gen.NurseryBytes ? 0 : Gen.NurseryBytes - Used;
  }

  /// The heap's total contribution to the interpreter's AllocSlack gate
  /// (the strict-< boundary discipline: the inline fast path takes only
  /// allocations with Bytes < AllocSlack; equality and beyond go
  /// through the slow path, docs/vm-hotpath.md). Today this is exactly
  /// the scheduled-GC slack: span-remaining capacity folds in as
  /// "infinite" because carving or refilling a span inside
  /// allocateObject/allocateArray is policy-free -- no GC, finalizer or
  /// OOM check can fire there, so spans add no boundary the gate must
  /// stop at. A span refill that DOES carry policy (e.g. a page-budget
  /// check) must min() its remaining bytes here rather than teaching
  /// the interpreter a new input.
  std::uint64_t allocationSlack() const { return scheduledGCSlack(); }

  /// Write barrier: the interpreter calls this when a reference is
  /// stored into \p Container; old containers join the remembered set
  /// (a card bit on the container's record in its old span).
  void writeBarrier(Handle Container) {
    if (Gen.Enabled && isLive(Container) && object(Container).Old)
      rememberContainer(object(Container));
  }

  std::uint64_t minorGCCount() const { return MinorGCCount; }
  std::size_t rememberedSetSize() const;

  /// Snapshot of span/remembered-set occupancy for the
  /// jdrag run --heap-stats debug dump.
  HeapOccupancy occupancy() const;

  /// Objects awaiting finalization (the VM runs their finalize methods,
  /// then clears the queue entries via finishFinalization).
  const std::vector<Handle> &pendingFinalizers() const { return PendingQueue; }

  /// Marks all pending-finalization objects as finalized and empties the
  /// queue; the next collect() can reclaim them if still unreachable.
  void finishFinalization();

  /// The byte clock: total bytes ever allocated (paper's time unit).
  ByteTime clock() const { return AllocatedTotal; }

  std::uint64_t liveBytes() const { return LiveBytes; }
  std::uint64_t liveObjectCount() const { return LiveObjects; }

  /// Iterates live objects (used for termination survivor reports).
  void forEachLiveObject(
      support::FunctionRef<void(Handle, const HeapObject &)> Fn) const;

  /// Total GC cycles run (for Table 4's "GC invoked less frequently").
  std::uint64_t gcCount() const { return GCCount; }

private:
  /// Acquires a reset record from a young span of \p SizeClass
  /// (out-of-line: needs the SpanStore definition). Policy-free: never
  /// triggers GC, finalization or OOM, which is what keeps the
  /// interpreter's AllocSlack gate ignorant of span boundaries.
  HeapObject *spanAcquire(unsigned SizeClass);

  /// Write-barrier tail: sets the card bit (container already known to
  /// be live and old; out-of-line like spanAcquire).
  void rememberContainer(HeapObject &Obj);

  /// The precomputed zeroed-slot image of class \p C (built on first
  /// allocation of the class; replaces the per-allocation super-chain
  /// walk with one trivially-copyable vector assign).
  const std::vector<Value> &zeroSlotsFor(ir::ClassId C,
                                         const ir::ClassInfo &CI) {
    ClassTemplate &T = Templates[C.Index];
    if (!T.Built)
      buildTemplate(C, CI, T);
    return T.ZeroSlots;
  }

  Handle newHandle(HeapObject *Obj) {
    std::uint32_t Index;
    if (!FreeHandles.empty()) {
      Index = FreeHandles.back();
      FreeHandles.pop_back();
      Table[Index] = Obj;
    } else {
      Index = static_cast<std::uint32_t>(Table.size());
      Table.push_back(Obj);
    }
    Obj->Self = Index;
    return Handle(Index);
  }

  struct ClassTemplate {
    bool Built = false;
    std::vector<Value> ZeroSlots;
  };
  void buildTemplate(ir::ClassId C, const ir::ClassInfo &CI,
                     ClassTemplate &T);

  void mark(Handle H, std::vector<Handle> &Stack);
  /// Like mark(), but never traverses *into* old objects (their young
  /// referents are covered by the remembered set).
  void markYoung(Handle H, std::vector<Handle> &Stack);
  void free(std::uint32_t Index);

  /// The shared dead-candidate protocol every sweep variant funnels
  /// through, verbatim from the original table sweep: resurrect onto
  /// the pending-finalization queue, keep if awaiting a finalizer, else
  /// emit collect events and free. Callers must invoke it in ascending
  /// handle-index order -- that ordering IS the observable contract.
  void reclaimOrResurrect(std::uint32_t Index, GCStats &Stats);

  /// The sweep: scans the young span set (plus the old set for a major
  /// collection) by bitmap, clears mark bits, ages/promotes survivors on
  /// a minor cycle, gathers dead candidates into DeadScratch, sorts them
  /// ascending and runs reclaimOrResurrect on each. Finishes by parking
  /// fully-empty spans in the per-class pool, which also releases
  /// remembered-set storage.
  void sweepSpans(GCStats &Stats, bool Minor);

  const ir::Program &P;
  EventEmitter *Emitter = nullptr;
  std::vector<HeapObject *> Table;
  std::vector<std::uint32_t> FreeHandles;
  std::vector<RootSource *> RootSources;
  std::vector<Handle> PendingQueue;
  /// Mark-phase worklist, persistent across collections: big heaps made
  /// per-collection construction (and its growth reallocations) a
  /// visible fraction of GC time, so the capacity is kept and topped up
  /// to the handle-table size -- the worst case, since each live object
  /// enters the stack at most once.
  std::vector<Handle> MarkStack;
  /// Per-class zeroed slot images, indexed by ClassId.
  std::vector<ClassTemplate> Templates;
  /// Object storage: arena, span sets, free vectors, cards. Owns every
  /// HeapObject record.
  std::unique_ptr<SpanStore> Store;
  /// Scratch for sweepSpans' gather-sort-reclaim pass; persistent so a
  /// GC-heavy phase does not reallocate it every cycle.
  std::vector<std::uint32_t> DeadScratch;
  ByteTime AllocatedTotal = 0;
  std::uint64_t LiveBytes = 0;
  std::uint64_t LiveObjects = 0;
  std::uint64_t GCCount = 0;
  ObjectId NextObjectId = 1;

  GenerationalConfig Gen;
  std::uint64_t MinorGCCount = 0;
  ByteTime LastScheduledGC = 0;
};

} // namespace jdrag::vm

#endif // JDRAG_VM_HEAP_H
