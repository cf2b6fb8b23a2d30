//===- tests/test_analysis.cpp - drag analyzer (phase 2) tests ------------===//

#include "analysis/AnchorSites.h"
#include "analysis/DragReport.h"
#include "analysis/HeapCurves.h"
#include "analysis/LagDragVoid.h"
#include "analysis/Patterns.h"
#include "analysis/ReportPrinter.h"
#include "analysis/Savings.h"

#include "profiler/DragProfiler.h"
#include "vm/VirtualMachine.h"

#include "VMTestUtils.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace jdrag;
using namespace jdrag::analysis;
using namespace jdrag::ir;
using namespace jdrag::profiler;
using jdrag::testutil::TestProgramBuilder;

namespace {

/// Builds a synthetic log; sites are hand-interned so the aggregation
/// arithmetic can be checked exactly.
struct LogFixture {
  ProfileLog Log;
  SiteId SiteA, SiteB, UseSite;

  LogFixture() {
    SiteA = Log.Sites.internFrames({{MethodId(0), 1, 10}});
    SiteB = Log.Sites.internFrames({{MethodId(0), 5, 11}, {MethodId(1), 2, 20}});
    UseSite = Log.Sites.internFrames({{MethodId(1), 7, 30}});
    Log.EndTime = 1000;
  }

  void addRecord(SiteId Site, std::uint32_t Bytes, ByteTime Alloc,
                 ByteTime LastUse, ByteTime Collect, bool Used) {
    ObjectRecord R;
    R.Id = Log.Records.size() + 1;
    R.Bytes = Bytes;
    R.AllocTime = Alloc;
    R.LastUseTime = LastUse;
    R.CollectTime = Collect;
    R.AllocSite = Site;
    R.LastUseSite = Used ? UseSite : InvalidSite;
    R.UsedOutsideInit = Used;
    R.UseCount = Used ? 1 : 0;
    Log.Records.push_back(R);
  }
};

} // namespace

TEST(DragReportAgg, RecordArithmetic) {
  LogFixture F;
  F.addRecord(F.SiteA, 100, 100, 200, 500, true);
  F.addRecord(F.SiteB, 10, 300, 300, 400, false);
  const ObjectRecord &Used = F.Log.Records[0];
  EXPECT_EQ(Used.dragTime(), 300u);
  EXPECT_EQ(Used.lifeTime(), 400u);
  EXPECT_EQ(Used.inUseTime(), 100u);
  EXPECT_DOUBLE_EQ(Used.drag(), 100.0 * 300.0);
  EXPECT_FALSE(Used.neverUsed());
  const ObjectRecord &Dead = F.Log.Records[1];
  EXPECT_TRUE(Dead.neverUsed());
  EXPECT_EQ(Dead.inUseTime(), 0u);
  EXPECT_DOUBLE_EQ(F.Log.totalDrag(), 100.0 * 300.0 + 10.0 * 100.0);
}

TEST(DragReportAgg, GroupAccounting) {
  // DragReport needs a Program only for the coarse partition rendering;
  // build a real (tiny) one.
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  ProfileLog Log;
  SiteId A = Log.Sites.internFrames({{M.id(), 0, 1}});
  SiteId B = Log.Sites.internFrames({{M.id(), 0, 1}, {M.id(), 0, 1}});
  Log.EndTime = 1000;
  auto Add = [&](SiteId S, std::uint32_t Bytes, ByteTime Alloc,
                 ByteTime LastUse, ByteTime Collect, bool Used) {
    ObjectRecord R;
    R.Bytes = Bytes;
    R.AllocTime = Alloc;
    R.LastUseTime = LastUse;
    R.CollectTime = Collect;
    R.AllocSite = S;
    R.UsedOutsideInit = Used;
    Log.Records.push_back(R);
  };
  Add(A, 100, 100, 200, 500, true); // drag 100*300 = 30000
  Add(A, 100, 50, 100, 600, true);  // drag 100*500 = 50000
  Add(B, 10, 300, 300, 400, false); // drag 10*100 = 1000, never-used

  DragReport R(P, Log);
  ASSERT_EQ(R.groups().size(), 2u);
  const SiteGroup &GA = R.groups()[0]; // biggest drag first
  EXPECT_EQ(GA.Site, A);
  EXPECT_EQ(GA.ObjectCount, 2u);
  EXPECT_DOUBLE_EQ(GA.TotalDrag, 80000.0);
  EXPECT_EQ(GA.NeverUsedCount, 0u);
  const SiteGroup &GB = R.groups()[1];
  EXPECT_EQ(GB.NeverUsedCount, 1u);
  EXPECT_DOUBLE_EQ(GB.NeverUsedDrag, 1000.0);
  EXPECT_DOUBLE_EQ(GB.neverUsedDragFraction(), 1.0);
  EXPECT_DOUBLE_EQ(R.totalDrag(), 81000.0);
  // Integral identity.
  EXPECT_NEAR(R.reachableIntegral(), R.inUseIntegral() + R.totalDrag(),
              1e-6);
  // Both nested sites share the same innermost frame: one coarse group.
  EXPECT_EQ(R.coarseGroups().size(), 1u);
  EXPECT_DOUBLE_EQ(R.coarseGroups()[0].TotalDrag, 81000.0);
  EXPECT_EQ(R.group(A), &GA);
  EXPECT_EQ(R.group(SiteId(99)), nullptr);
}

TEST(Patterns, ClassificationRules) {
  auto MakeGroup = [](std::uint64_t Objects, std::uint64_t NeverUsed,
                      double NeverUsedDragFrac,
                      std::vector<double> Drags,
                      std::uint64_t LargeDrag) {
    SiteGroup G;
    G.ObjectCount = Objects;
    G.NeverUsedCount = NeverUsed;
    for (double D : Drags) {
      G.TotalDrag += D;
      G.DragPerObject.add(D);
    }
    G.NeverUsedDrag = G.TotalDrag * NeverUsedDragFrac;
    G.LargeDragCount = LargeDrag;
    return G;
  };

  // Pattern 1: all drag from never-used objects.
  SiteGroup P1 = MakeGroup(10, 10, 1.0, {100, 100, 100}, 0);
  EXPECT_EQ(classifyPattern(P1), LifetimePattern::AllNeverUsed);

  // Pattern 2: most objects never used (but some drag from used ones).
  SiteGroup P2 = MakeGroup(10, 7, 0.5, {100, 100, 100}, 0);
  EXPECT_EQ(classifyPattern(P2), LifetimePattern::MostNeverUsed);

  // Pattern 4: high variance of per-object drag.
  SiteGroup P4 = MakeGroup(4, 0, 0.0, {1.0, 1.0, 1.0, 1000.0}, 4);
  EXPECT_EQ(classifyPattern(P4), LifetimePattern::HighVariance);

  // Pattern 3: uniform large drags.
  SiteGroup P3 = MakeGroup(3, 0, 0.0, {100, 100, 100}, 3);
  EXPECT_EQ(classifyPattern(P3), LifetimePattern::MostLargeDrag);

  // Pattern 3 via the absolute form: drag small relative to lifetime but
  // macroscopic relative to the program.
  SiteGroup PAbs = MakeGroup(1, 0, 0.0, {5000.0}, 0);
  EXPECT_EQ(classifyPattern(PAbs, PatternThresholds(), /*Reachable=*/1e6),
            LifetimePattern::MostLargeDrag);
  EXPECT_EQ(classifyPattern(PAbs, PatternThresholds(), /*Reachable=*/1e9),
            LifetimePattern::Mixed);

  // Empty group.
  SiteGroup Empty;
  EXPECT_EQ(classifyPattern(Empty), LifetimePattern::Mixed);
}

TEST(Patterns, StrategyMapping) {
  EXPECT_EQ(strategyFor(LifetimePattern::AllNeverUsed),
            RewriteStrategy::DeadCodeRemoval);
  EXPECT_EQ(strategyFor(LifetimePattern::MostNeverUsed),
            RewriteStrategy::LazyAllocation);
  EXPECT_EQ(strategyFor(LifetimePattern::MostLargeDrag),
            RewriteStrategy::AssignNull);
  EXPECT_EQ(strategyFor(LifetimePattern::HighVariance),
            RewriteStrategy::None);
  EXPECT_STREQ(patternName(LifetimePattern::HighVariance), "high-variance");
  EXPECT_STREQ(strategyName(RewriteStrategy::LazyAllocation),
               "lazy allocation");
}

TEST(HeapCurvesTest, ReconstructsStepFunction) {
  ProfileLog Log;
  Log.EndTime = 1000;
  ObjectRecord R;
  R.Bytes = 100;
  R.AllocTime = 100;
  R.LastUseTime = 400;
  R.CollectTime = 800;
  R.AllocSite = Log.Sites.internFrames({});
  R.UsedOutsideInit = true;
  Log.Records.push_back(R);

  HeapCurve C = buildHeapCurve(Log, 1000);
  ASSERT_EQ(C.size(), 1000u);
  auto At = [&](ByteTime T) -> std::size_t {
    for (std::size_t I = 0; I != C.Times.size(); ++I)
      if (C.Times[I] >= T)
        return I;
    return C.Times.size() - 1;
  };
  EXPECT_EQ(C.ReachableBytes[At(50)], 0u);
  EXPECT_EQ(C.ReachableBytes[At(200)], 100u);
  EXPECT_EQ(C.ReachableBytes[At(799)], 100u);
  EXPECT_EQ(C.ReachableBytes[At(900)], 0u);
  EXPECT_EQ(C.InUseBytes[At(200)], 100u);
  EXPECT_EQ(C.InUseBytes[At(500)], 0u);
  // Discrete integrals approximate the exact ones.
  EXPECT_NEAR(C.reachableIntegral(), Log.reachableIntegral(),
              Log.reachableIntegral() * 0.01);
  EXPECT_NEAR(C.inUseIntegral(), Log.inUseIntegral(),
              Log.inUseIntegral() * 0.01 + 200.0);
  EXPECT_EQ(C.peakReachable(), 100u);
}

TEST(HeapCurvesTest, NeverUsedContributesNothingInUse) {
  ProfileLog Log;
  Log.EndTime = 100;
  ObjectRecord R;
  R.Bytes = 10;
  R.AllocTime = 10;
  R.LastUseTime = 10; // never used: last-use == alloc
  R.CollectTime = 90;
  R.AllocSite = Log.Sites.internFrames({});
  Log.Records.push_back(R);
  HeapCurve C = buildHeapCurve(Log, 100);
  for (std::uint64_t V : C.InUseBytes)
    EXPECT_EQ(V, 0u);
  EXPECT_GT(C.reachableIntegral(), 0.0);
}

TEST(HeapCurvesTest, Figure2CsvShape) {
  ProfileLog A, B;
  A.EndTime = 1000;
  B.EndTime = 500; // revised run allocates less
  ObjectRecord R;
  R.Bytes = 10;
  R.AllocTime = 0;
  R.LastUseTime = 100;
  R.CollectTime = 900;
  R.AllocSite = A.Sites.internFrames({});
  A.Records.push_back(R);
  CsvWriter Csv = figure2Csv(A, B, 64);
  std::string Text = Csv.render();
  EXPECT_NE(Text.find("time_mb,orig_reachable_mb,orig_inuse_mb,"
                      "rev_reachable_mb,rev_inuse_mb"),
            std::string::npos);
  // 64 samples + header.
  EXPECT_EQ(std::count(Text.begin(), Text.end(), '\n'), 65);
}

TEST(SavingsTest, PaperFormulas) {
  // mc-style: reduced reachable below original in-use -> ratio > 100%.
  SavingsRow Row;
  Row.OriginalReachableMB2 = 11747.09; // the paper's mc numbers
  Row.OriginalInUseMB2 = 11310.73;
  Row.ReducedReachableMB2 = 11010.44;
  Row.ReducedInUseMB2 = 10969.61;
  EXPECT_NEAR(Row.dragSavingRatio(), 1.6882, 0.001);
  EXPECT_NEAR(Row.spaceSavingRatio(), 0.0627, 0.001);

  // javac's numbers.
  SavingsRow J;
  J.OriginalReachableMB2 = 1015.4;
  J.OriginalInUseMB2 = 656.19;
  J.ReducedReachableMB2 = 937.09;
  J.ReducedInUseMB2 = 566.49;
  EXPECT_NEAR(J.dragSavingRatio(), 0.218, 0.001);
  EXPECT_NEAR(J.spaceSavingRatio(), 0.0771, 0.001);

  // Degenerate inputs.
  SavingsRow Zero;
  EXPECT_EQ(Zero.dragSavingRatio(), 0.0);
  EXPECT_EQ(Zero.spaceSavingRatio(), 0.0);
}

TEST(AnchorSitesTest, WalksOutOfLibraryCode) {
  TestProgramBuilder T;
  ClassBuilder Lib = T.PB.beginClass("Lib", T.PB.objectClass(),
                                     /*IsLibrary=*/true);
  MethodBuilder LibM = Lib.beginMethod("alloc", {}, ValueKind::Void, true);
  LibM.ret();
  LibM.finish();
  ClassBuilder App = T.PB.beginClass("App", T.PB.objectClass());
  MethodBuilder AppM = App.beginMethod("main", {}, ValueKind::Void, true);
  AppM.ret();
  AppM.finish();
  T.PB.setMain(AppM.id());
  Program P = T.finishVerified();

  SiteTable Sites;
  SiteId Nested = Sites.internFrames(
      {{LibM.id(), 3, 10}, {LibM.id(), 5, 11}, {AppM.id(), 2, 20}});
  auto Anchor = findAnchor(P, Sites, Nested);
  ASSERT_TRUE(Anchor.has_value());
  EXPECT_TRUE(Anchor->InApplication);
  EXPECT_EQ(Anchor->Frame.Method, AppM.id());
  EXPECT_EQ(Anchor->ChainDepth, 2u);

  // All-library chain: falls back to the innermost frame.
  SiteId LibOnly = Sites.internFrames({{LibM.id(), 3, 10}});
  auto A2 = findAnchor(P, Sites, LibOnly);
  ASSERT_TRUE(A2.has_value());
  EXPECT_FALSE(A2->InApplication);
  EXPECT_EQ(A2->ChainDepth, 0u);

  // The "<vm>" site has no anchor.
  SiteId Vm = Sites.internFrames({});
  EXPECT_FALSE(findAnchor(P, Sites, Vm).has_value());
}

TEST(ReportPrinterTest, RendersSortedReport) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  ProfileLog Log;
  SiteId S = Log.Sites.internFrames({{M.id(), 0, 42}});
  Log.EndTime = 1000;
  ObjectRecord R;
  R.Bytes = 64;
  R.AllocTime = 0;
  R.LastUseTime = 100;
  R.CollectTime = 1000;
  R.AllocSite = S;
  R.UsedOutsideInit = true;
  Log.Records.push_back(R);

  DragReport Report(P, Log);
  std::string Text = renderDragReport(Report);
  EXPECT_NE(Text.find("jdrag drag report"), std::string::npos);
  EXPECT_NE(Text.find("Main.main:42"), std::string::npos);
  EXPECT_NE(Text.find("pattern"), std::string::npos);
  EXPECT_NE(Text.find("coarse partition"), std::string::npos);
}

TEST(LagDragVoidTest, DecompositionIdentity) {
  ProfileLog Log;
  Log.EndTime = 1000;
  SiteId S = Log.Sites.internFrames({});
  auto Add = [&](std::uint32_t Bytes, ByteTime A, ByteTime F, ByteTime L,
                 ByteTime C, bool Used) {
    ObjectRecord R;
    R.Bytes = Bytes;
    R.AllocTime = A;
    R.FirstUseTime = F;
    R.LastUseTime = L;
    R.CollectTime = C;
    R.AllocSite = S;
    R.UsedOutsideInit = Used;
    Log.Records.push_back(R);
  };
  // Used object: lag 100, use 200, drag 300.
  Add(10, 0, 100, 300, 600, true);
  // Never-used object: void = whole 500-byte lifetime.
  Add(20, 100, 100, 100, 600, false);

  LifetimeDecomposition D = decomposeLifetimes(Log);
  EXPECT_DOUBLE_EQ(D.Lag, 10.0 * 100);
  EXPECT_DOUBLE_EQ(D.Use, 10.0 * 200);
  EXPECT_DOUBLE_EQ(D.Drag, 10.0 * 300);
  EXPECT_DOUBLE_EQ(D.Void, 20.0 * 500);
  // Four-way total equals the reachable integral.
  EXPECT_DOUBLE_EQ(D.total(), Log.reachableIntegral());
  // The paper's 2-way drag folds void in: drag2 = drag4 + void.
  EXPECT_DOUBLE_EQ(Log.totalDrag(), D.Drag + D.Void);
  std::string Text = renderDecomposition(D);
  EXPECT_NE(Text.find("void"), std::string::npos);
}

TEST(LagDragVoidTest, FractionsSumToOne) {
  ProfileLog Log;
  Log.EndTime = 50;
  SiteId S = Log.Sites.internFrames({});
  ObjectRecord R;
  R.Bytes = 8;
  R.AllocTime = 0;
  R.FirstUseTime = 10;
  R.LastUseTime = 30;
  R.CollectTime = 50;
  R.AllocSite = S;
  R.UsedOutsideInit = true;
  Log.Records.push_back(R);
  LifetimeDecomposition D = decomposeLifetimes(Log);
  EXPECT_NEAR(D.lagFraction() + D.useFraction() + D.dragFraction() +
                  D.voidFraction(),
              1.0, 1e-12);
  // Empty log: all fractions zero.
  LifetimeDecomposition Empty = decomposeLifetimes(ProfileLog());
  EXPECT_EQ(Empty.total(), 0.0);
  EXPECT_EQ(Empty.lagFraction(), 0.0);
}

TEST(DragHistogram, BucketsAndLabels) {
  EXPECT_EQ(SiteGroup::histoBucket(0), 0u);
  EXPECT_EQ(SiteGroup::histoBucket(4 * 1024 - 1), 0u);
  EXPECT_EQ(SiteGroup::histoBucket(4 * 1024), 1u);
  EXPECT_EQ(SiteGroup::histoBucket(16 * 1024), 2u);
  EXPECT_EQ(SiteGroup::histoBucket(1024 * 1024), 5u);
  EXPECT_EQ(SiteGroup::histoBucket(1ull << 40),
            SiteGroup::NumHistoBuckets - 1);
  EXPECT_EQ(SiteGroup::histoBucketLabel(0), "<4K");
  EXPECT_EQ(SiteGroup::histoBucketLabel(1), "4K-16K");
  EXPECT_EQ(SiteGroup::histoBucketLabel(SiteGroup::NumHistoBuckets - 1),
            ">=16M");
}

TEST(HistoBucket, ClosedFormMatchesLoop) {
  // The bucket rule as first written: walk the 4^k KB edges upwards.
  auto Loop = [](ByteTime DragTime) {
    std::size_t Bucket = 0;
    ByteTime Limit = 4 * 1024;
    while (Bucket + 1 < SiteGroup::NumHistoBuckets && DragTime >= Limit) {
      Limit *= 4;
      ++Bucket;
    }
    return Bucket;
  };
  std::vector<ByteTime> Points = {0, 1, ~ByteTime(0)};
  for (int K = 0; K <= 26; ++K) { // every edge 4^K * 1024 up to 2^62
    ByteTime Edge = ByteTime(1024) << (2 * K);
    for (ByteTime T : {Edge - 1, Edge, Edge + 1})
      Points.push_back(T);
  }
  for (ByteTime T : Points)
    EXPECT_EQ(SiteGroup::histoBucket(T), Loop(T)) << "drag time " << T;
}

TEST(DragHistogram, FilledByReport) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  ProfileLog Log;
  SiteId S = Log.Sites.internFrames({{M.id(), 0, 1}});
  Log.EndTime = 40 * 1024 * 1024;
  auto Add = [&](ByteTime DragTime) {
    ObjectRecord R;
    R.Bytes = 16;
    R.AllocTime = 0;
    R.LastUseTime = 0;
    R.CollectTime = DragTime;
    R.AllocSite = S;
    R.UsedOutsideInit = true;
    Log.Records.push_back(R);
  };
  Add(1024);            // bucket 0
  Add(5 * 1024);        // bucket 1
  Add(5 * 1024);        // bucket 1
  Add(20 * 1024 * 1024);// top bucket
  DragReport R(P, Log);
  ASSERT_EQ(R.groups().size(), 1u);
  const auto &H = R.groups()[0].DragTimeHisto;
  EXPECT_EQ(H[0], 1u);
  EXPECT_EQ(H[1], 2u);
  EXPECT_EQ(H[SiteGroup::NumHistoBuckets - 1], 1u);
  std::string Detail = renderSiteDetail(R, R.groups()[0]);
  EXPECT_NE(Detail.find("drag-time histogram"), std::string::npos);
  EXPECT_NE(Detail.find("4K-16K:2"), std::string::npos);
}

TEST(ClassPartition, AggregatesByClassAndArrayKind) {
  TestProgramBuilder T;
  ClassBuilder CC = T.PB.beginClass("Thing", T.PB.objectClass());
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  ProfileLog Log;
  SiteId S = Log.Sites.internFrames({{M.id(), 0, 1}});
  Log.EndTime = 1000;
  auto Add = [&](bool IsArray, ArrayKind K, ClassId C, std::uint32_t Bytes,
                 ByteTime Collect) {
    ObjectRecord R;
    R.IsArray = IsArray;
    R.AKind = K;
    R.Class = C;
    R.Bytes = Bytes;
    R.AllocTime = 0;
    R.LastUseTime = 0;
    R.CollectTime = Collect;
    R.AllocSite = S;
    Log.Records.push_back(R);
  };
  Add(false, ArrayKind::Int, CC.id(), 16, 100);  // Thing, drag 1600
  Add(false, ArrayKind::Int, CC.id(), 16, 200);  // Thing, drag 3200
  Add(true, ArrayKind::Char, ClassId(), 64, 500); // char[], drag 32000

  DragReport R(P, Log);
  ASSERT_EQ(R.classGroups().size(), 2u);
  const ClassGroup &Top = R.classGroups()[0];
  EXPECT_TRUE(Top.IsArray);
  EXPECT_EQ(Top.name(P), "char[]");
  EXPECT_DOUBLE_EQ(Top.TotalDrag, 64.0 * 500.0);
  const ClassGroup &Second = R.classGroups()[1];
  EXPECT_EQ(Second.name(P), "Thing");
  EXPECT_EQ(Second.ObjectCount, 2u);
  EXPECT_EQ(Second.TotalBytes, 32u);
  EXPECT_EQ(Second.NeverUsedCount, 2u);

  std::string Text = renderDragReport(R);
  EXPECT_NE(Text.find("per-class partition"), std::string::npos);
  EXPECT_NE(Text.find("char[]"), std::string::npos);
}

TEST(RecordsCsvTest, DumpsAllColumns) {
  TestProgramBuilder T;
  ClassBuilder CC = T.PB.beginClass("Thing", T.PB.objectClass());
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  ProfileLog Log;
  SiteId S = Log.Sites.internFrames({{M.id(), 0, 5}});
  Log.EndTime = 100;
  ObjectRecord R;
  R.Id = 7;
  R.Class = CC.id();
  R.Bytes = 16;
  R.AllocTime = 10;
  R.FirstUseTime = 20;
  R.LastUseTime = 30;
  R.CollectTime = 90;
  R.AllocSite = S;
  R.LastUseSite = S;
  R.UsedOutsideInit = true;
  Log.Records.push_back(R);

  std::string Text = recordsCsv(P, Log).render();
  EXPECT_NE(Text.find("id,class,bytes"), std::string::npos);
  EXPECT_NE(Text.find("7,Thing,16,10,20,30,90,10,10,60,0,0,0"),
            std::string::npos);
  EXPECT_NE(Text.find("Main.main:5"), std::string::npos);
}

TEST(CurveCrossValidation, OfflineReconstructionMatchesGCSamples) {
  // The VM's reachable-byte count at each deep GC (ground truth from the
  // live heap) must equal the offline reconstruction from the object
  // records at that instant, modulo the VM-internal OOM instance that
  // carries no trailer.
  TestProgramBuilder T;
  ClassBuilder Node = T.PB.beginClass("Node", T.PB.objectClass());
  FieldId Next = Node.addField("next", ValueKind::Ref);
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  FieldId Keep =
      MainC.addField("keep", ValueKind::Ref, Visibility::Private, true);
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t I = M.newLocal(ValueKind::Int);
  std::uint32_t N = M.newLocal(ValueKind::Ref);
  Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(200).istore(I);
  M.bind(Loop);
  M.iload(I).ifLeZ(Done);
  // Every 4th node is retained on a static list; the rest are garbage.
  M.new_(Node.id()).dup().invokespecial(T.PB.objectCtor()).astore(N);
  Label Skip = M.newLabel();
  M.iload(I).iconst(3).iand_().ifNeZ(Skip);
  M.aload(N).getstatic(Keep).putfield(Next);
  M.aload(N).putstatic(Keep);
  M.bind(Skip);
  M.iconst(254).newarray(ArrayKind::Int).pop(); // ~1 KB churn
  M.iload(I).iconst(1).isub().istore(I);
  M.goto_(Loop);
  M.bind(Done);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  profiler::DragProfiler Prof(P);
  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = 20 * KB;
  Prof.attachTo(Opts);
  vm::VirtualMachine VM(P, Opts);
  std::string Err;
  ASSERT_EQ(VM.run(&Err), vm::Interpreter::Status::Ok) << Err;
  const ProfileLog &Log = Prof.log();
  ASSERT_GE(Log.GCSamples.size(), 4u);

  std::uint64_t OOMBytes =
      P.classOf(P.OOMClass).InstanceAccountedBytes;
  for (std::size_t SI = 0; SI != Log.GCSamples.size(); ++SI) {
    const GCSample &S = Log.GCSamples[SI];
    // Several GC events can share one byte-clock instant (the clock only
    // advances on allocation); the offline reconstruction corresponds to
    // the *last* state at each instant.
    if (SI + 1 != Log.GCSamples.size() &&
        Log.GCSamples[SI + 1].Time == S.Time)
      continue; // keep only the last sample per instant
    std::uint64_t Offline = 0;
    for (const ObjectRecord &R : Log.Records) {
      // Survivors carry CollectTime == EndTime but are still live at the
      // final samples (lifetimes are half-open elsewhere).
      bool Live = R.AllocTime <= S.Time &&
                  (R.CollectTime > S.Time ||
                   (R.SurvivedToEnd && R.CollectTime == S.Time));
      if (Live)
        Offline += R.Bytes;
    }
    EXPECT_EQ(S.ReachableBytes, Offline + OOMBytes)
        << "at byte clock " << S.Time;
  }
}
