//===- tests/test_heapspans.cpp - Span heap + generational edges ----------===//
//
// Part of jdrag test suite.
//
// Coverage for the page-span heap (docs/heap.md) and for generational
// edge cases no other suite pins: the size-class bit-scan boundaries,
// the handle assignment and recycling order, write-barrier liveness
// through a dying old container, promotion exactly at PromoteAge,
// finalizer resurrection of a young object across a minor collection,
// remembered-set storage release after a major collection, and the
// occupancy dump.
//
//===----------------------------------------------------------------------===//

#include "vm/Heap.h"
#include "vm/VirtualMachine.h"

#include "VMTestUtils.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace jdrag;
using namespace jdrag::ir;
using namespace jdrag::vm;
using namespace jdrag::testutil;

namespace {

/// A root source pinning an explicit list of handles.
class PinnedRoots : public RootSource {
public:
  std::vector<Handle> Pins;
  void visitRoots(HandleVisitor Visit) override {
    for (Handle H : Pins)
      Visit(H);
  }
};

/// Node has a ref slot, an int slot and a finalize() method, so one
/// program covers reference edges, payload integrity and resurrection.
/// NOTE: an unreachable Node is therefore resurrected once before it
/// can be freed -- tests that expect plain reclamation use arrays
/// (which never have finalizers) instead.
Program nodeProgram(ClassId *NodeOut, FieldId *NextOut, FieldId *ValOut) {
  TestProgramBuilder T;
  ClassBuilder Node = T.PB.beginClass("Node", T.PB.objectClass());
  FieldId Next = Node.addField("next", ValueKind::Ref);
  FieldId Val = Node.addField("val", ValueKind::Int);
  (void)Next;
  (void)Val;
  MethodBuilder Fin = Node.beginMethod("finalize", {}, ValueKind::Void);
  Fin.ret();
  Fin.finish();
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();
  *NodeOut = P.findClass("Node");
  *NextOut = P.findField(*NodeOut, "next");
  *ValOut = P.findField(*NodeOut, "val");
  return P;
}

//===----------------------------------------------------------------------===//
// Satellite: sizeClassOf bit-scan boundaries
//===----------------------------------------------------------------------===//

TEST(SizeClasses, PinnedBoundaries) {
  // Class 0 covers 0..1 slots.
  EXPECT_EQ(Heap::sizeClassOf(0), 0u);
  EXPECT_EQ(Heap::sizeClassOf(1), 0u);
  // For every interior class K: 2^K lands in K, 2^K + 1 spills to K+1.
  for (unsigned K = 1; K + 1 < Heap::NumSizeClasses; ++K) {
    std::size_t Pow = std::size_t(1) << K;
    EXPECT_EQ(Heap::sizeClassOf(Pow), K) << "2^" << K;
    EXPECT_EQ(Heap::sizeClassOf(Pow + 1), K + 1) << "2^" << K << "+1";
  }
  // The top class is open-ended: 2^13, 2^13 + 1 and anything larger.
  std::size_t Top = std::size_t(1) << (Heap::NumSizeClasses - 1);
  EXPECT_EQ(Heap::sizeClassOf(Top), Heap::NumSizeClasses - 1);
  EXPECT_EQ(Heap::sizeClassOf(Top + 1), Heap::NumSizeClasses - 1);
  EXPECT_EQ(Heap::sizeClassOf(std::size_t(1) << 30), Heap::NumSizeClasses - 1);
}

TEST(SizeClasses, MatchesLinearReference) {
  // The bit-scan must agree everywhere with the linear loop it replaced.
  auto Reference = [](std::size_t Slots) {
    unsigned C = 0;
    while (C + 1 < Heap::NumSizeClasses && (std::size_t(1) << C) < Slots)
      ++C;
    return C;
  };
  for (std::size_t S = 0; S != 20000; ++S)
    ASSERT_EQ(Heap::sizeClassOf(S), Reference(S)) << S;
}

//===----------------------------------------------------------------------===//
// Handle order at the heap API level
//===----------------------------------------------------------------------===//

TEST(HeapSpans, HandleSequenceIdenticalAcrossBackends) {
  // Handle assignment and recycling order is observable (it decides
  // future sweep order). The expected trace is the one the retired
  // legacy flat heap produced for this allocate/collect pattern, so the
  // span heap stays identical to that backend.
  ClassId Node;
  FieldId Next, Val;
  Program P = nodeProgram(&Node, &Next, &Val);
  Heap H(P);
  PinnedRoots Roots;
  H.addRootSource(&Roots);
  std::vector<std::uint32_t> Trace;
  for (int I = 0; I != 100; ++I) {
    Handle A = H.allocateObject(Node);
    Trace.push_back(A.Index);
    if (I % 2 == 0)
      Roots.Pins.push_back(A); // pin evens, drop odds
  }
  GCStats S = H.collect();
  Trace.push_back(static_cast<std::uint32_t>(S.FreedObjects));
  for (int I = 0; I != 80; ++I)
    Trace.push_back(H.allocateArray(ArrayKind::Ref, I % 7).Index);
  H.collect();
  H.forEachLiveObject(
      [&](Handle HL, const HeapObject &) { Trace.push_back(HL.Index); });

  std::vector<std::uint32_t> Expected;
  auto Range = [&](std::uint32_t Lo, std::uint32_t Hi) {
    for (std::uint32_t I = Lo; I != Hi; ++I)
      Expected.push_back(I);
  };
  Range(0, 100);         // the nodes take fresh handles in order
  Expected.push_back(0); // odd nodes are resurrected for finalize(): none freed
  Range(100, 180);       // nothing was recycled, so the arrays are fresh too
  Range(0, 100);         // survivors: every node (odds await finalizers)
  EXPECT_EQ(Trace, Expected);
}

//===----------------------------------------------------------------------===//
// Generational edge cases
//===----------------------------------------------------------------------===//

TEST(GenerationalEdge, ArrayStoreBarrierOutlivesDyingOldContainer) {
  // old-array[0] = young; every other path to young AND to the old
  // array dies before the minor GC. Old objects are only reclaimed by a
  // major collection, so the remembered set still holds the dead-but-
  // unfreed array and the young node must survive the minor cycle.
  ClassId Node;
  FieldId Next, Val;
  Program P = nodeProgram(&Node, &Next, &Val);
  Heap H(P);
  GenerationalConfig G;
  G.Enabled = true;
  G.PromoteAge = 1;
  H.setGenerational(G);
  PinnedRoots Roots;
  H.addRootSource(&Roots);

  Handle Arr = H.allocateArray(ArrayKind::Ref, 4);
  Roots.Pins.push_back(Arr);
  H.collectMinor(); // survivor at PromoteAge=1 -> old
  ASSERT_TRUE(H.object(Arr).Old);

  // Young is an int array (arrays have no finalizers, so its death
  // below is plain reclamation, not resurrection).
  Handle Young = H.allocateArray(ArrayKind::Int, 3);
  H.object(Young).Slots[1] = Value::makeInt(77);
  // The AAStore sequence: store the ref, then the write barrier on
  // the container (InterpreterLoop.inc does exactly this pair).
  H.object(Arr).Slots[0] = Value::makeRef(Young);
  H.writeBarrier(Arr);
  EXPECT_EQ(H.rememberedSetSize(), 1u);

  Roots.Pins.clear(); // the old container is now unreachable too
  GCStats Minor = H.collectMinor();
  EXPECT_EQ(Minor.FreedObjects, 0u);
  ASSERT_TRUE(H.isLive(Young));
  EXPECT_EQ(H.object(Young).Slots[1].asInt(), 77);

  // The major collection reclaims the dead old array, its remembered
  // entry, and the young node (now unreachable from anywhere).
  H.collect();
  EXPECT_FALSE(H.isLive(Arr));
  EXPECT_FALSE(H.isLive(Young));
  EXPECT_EQ(H.rememberedSetSize(), 0u);
}

TEST(GenerationalEdge, PromotionExactlyAtPromoteAge) {
  ClassId Node;
  FieldId Next, Val;
  Program P = nodeProgram(&Node, &Next, &Val);
  Heap H(P);
  GenerationalConfig G;
  G.Enabled = true;
  G.PromoteAge = 3;
  H.setGenerational(G);
  PinnedRoots Roots;
  H.addRootSource(&Roots);

  Handle A = H.allocateObject(Node);
  Roots.Pins.push_back(A);
  H.object(A).Slots[P.fieldOf(Val).Slot] = Value::makeInt(1234);

  // Ages 1 and 2: still young.
  H.collectMinor();
  EXPECT_FALSE(H.object(A).Old);
  EXPECT_EQ(H.object(A).Age, 1u);
  H.collectMinor();
  EXPECT_FALSE(H.object(A).Old);
  EXPECT_EQ(H.object(A).Age, 2u);
  // Age 3 == PromoteAge: promoted on exactly this cycle. The record
  // physically moves to an old span; the handle and payload must come
  // through intact.
  H.collectMinor();
  EXPECT_TRUE(H.object(A).Old);
  EXPECT_EQ(H.object(A).Slots[P.fieldOf(Val).Slot].asInt(), 1234);
  EXPECT_TRUE(H.isLive(A));
  // A freshly promoted object is NOT in the remembered set until a
  // write barrier fires.
  EXPECT_EQ(H.rememberedSetSize(), 0u);
}

TEST(GenerationalEdge, FinalizerResurrectionOfYoungAcrossMinor) {
  ClassId Node;
  FieldId Next, Val;
  Program P = nodeProgram(&Node, &Next, &Val);
  Heap H(P);
  GenerationalConfig G;
  G.Enabled = true;
  G.PromoteAge = 10; // keep promotion out of the way
  H.setGenerational(G);
  PinnedRoots Roots;
  H.addRootSource(&Roots);

  Handle F = H.allocateObject(Node); // Node has a finalize() method
  // Unreachable from the start: the minor collection must resurrect
  // it onto the pending queue instead of freeing it.
  GCStats First = H.collectMinor();
  EXPECT_EQ(First.FreedObjects, 0u);
  EXPECT_EQ(First.NewlyFinalizable, 1u);
  ASSERT_TRUE(H.isLive(F));
  EXPECT_TRUE(H.object(F).PendingFinalize);
  ASSERT_EQ(H.pendingFinalizers().size(), 1u);
  EXPECT_EQ(H.pendingFinalizers()[0].Index, F.Index);

  // While queued (finalizer "running"), another minor keeps it alive.
  GCStats Second = H.collectMinor();
  EXPECT_EQ(Second.FreedObjects, 0u);
  ASSERT_TRUE(H.isLive(F));

  // Finalizer done: the next minor reclaims it for good.
  H.finishFinalization();
  GCStats Third = H.collectMinor();
  EXPECT_EQ(Third.FreedObjects, 1u);
  EXPECT_FALSE(H.isLive(F));
}

//===----------------------------------------------------------------------===//
// Satellite: remembered-set storage release after a major collection
//===----------------------------------------------------------------------===//

TEST(RememberedSet, StorageShrinksAfterMajorCollect) {
  ClassId Node;
  FieldId Next, Val;
  Program P = nodeProgram(&Node, &Next, &Val);
  Heap H(P);
  GenerationalConfig G;
  G.Enabled = true;
  G.PromoteAge = 1;
  G.MajorEveryNMinors = 0;
  H.setGenerational(G);
  PinnedRoots Roots;
  H.addRootSource(&Roots);

  // Promote a burst of containers (finalizer-free ref arrays) and
  // remember all of them.
  std::vector<Handle> Olds;
  for (int I = 0; I != 4000; ++I) {
    Handle A = H.allocateArray(ArrayKind::Ref, 1);
    Roots.Pins.push_back(A);
    Olds.push_back(A);
  }
  H.collectMinor();
  for (Handle A : Olds) {
    ASSERT_TRUE(H.object(A).Old);
    H.writeBarrier(A);
  }
  EXPECT_EQ(H.rememberedSetSize(), 4000u);
  std::size_t PeakCapacity = H.occupancy().RememberedCapacity;
  EXPECT_GE(PeakCapacity, 4000u);

  // The burst dies; the major collection empties the set AND gives
  // its storage back (empty old spans are parked, shrinking the
  // card-scan set).
  Roots.Pins.clear();
  H.collect();
  EXPECT_EQ(H.rememberedSetSize(), 0u);
  std::size_t After = H.occupancy().RememberedCapacity;
  EXPECT_LT(After, PeakCapacity / 4)
      << "remembered storage stayed pinned at its peak";
}

//===----------------------------------------------------------------------===//
// Satellite: occupancy dump
//===----------------------------------------------------------------------===//

TEST(HeapOccupancyDump, ReportsSpansAndPools) {
  ClassId Node;
  FieldId Next, Val;
  Program P = nodeProgram(&Node, &Next, &Val);
  Heap H(P);
  GenerationalConfig G;
  G.Enabled = true;
  G.PromoteAge = 1;
  H.setGenerational(G);
  PinnedRoots Roots;
  H.addRootSource(&Roots);

  for (int I = 0; I != 50; ++I)
    Roots.Pins.push_back(H.allocateArray(ArrayKind::Ref, 2));
  for (int I = 0; I != 50; ++I)
    H.allocateArray(ArrayKind::Int, 100); // young garbage

  HeapOccupancy O = H.occupancy();
  EXPECT_GT(O.YoungSpans, 0u);
  EXPECT_GT(O.RecordsPerSpan, 0u);
  EXPECT_EQ(O.SpanBytes % (4 * KB), 0u) << "spans must be whole pages";
  ASSERT_FALSE(O.Rows.empty());
  std::size_t Live = 0;
  for (const HeapOccupancyRow &R : O.Rows)
    Live += R.LiveRecords;
  EXPECT_EQ(Live, H.liveObjectCount());

  // Promote the pinned objects, then verify old spans appear.
  H.collectMinor();
  O = H.occupancy();
  EXPECT_GT(O.OldSpans, 0u);

  // Drop everything: a major collection empties and parks the spans.
  Roots.Pins.clear();
  H.collect();
  O = H.occupancy();
  EXPECT_GT(O.PooledSpans, 0u);
  EXPECT_EQ(O.YoungSpans + O.OldSpans, 0u);
}

} // namespace
