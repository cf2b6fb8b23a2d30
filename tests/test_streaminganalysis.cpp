//===- tests/test_streaminganalysis.cpp - Streaming fold engine tests -----===//
//
// Part of jdrag test suite.
//
// The streaming single-pass analysis engine (analysis/RecordFold.h,
// analysis/StreamingAnalysis.h) and its bit-identity contract: every
// result a streaming fold produces -- drag report, Roejemo-Runciman
// lifetime decomposition, Figure 2 curves, per-object CSV -- must be
// byte-for-byte identical to the materialized O(records) pipeline,
// sequentially and under the sharded merge. The determinism machinery
// gets its own units (ExactSum permutation invariance and correct
// rounding, OpenIndex growth), and the R&R identity
//   lag + use + drag4 + void == reachable
// is held exactly, in integer arithmetic, across all nine paper
// workloads x {exact, sampled} x {v4, v6}.
//
//===----------------------------------------------------------------------===//

#include "analysis/RecordFold.h"
#include "analysis/ReportPrinter.h"
#include "analysis/StreamingAnalysis.h"
#include "benchmarks/Benchmarks.h"
#include "profiler/EventStream.h"
#include "support/ExactSum.h"
#include "vm/VirtualMachine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace jdrag;
using namespace jdrag::analysis;
using namespace jdrag::profiler;

namespace {

/// Pid-unique scratch path: concurrent ctest runs (e.g. the default and
/// sanitize presets) must not share files.
std::string tempPath(const std::string &Name) {
  return "/tmp/jdrag_sa_" + std::to_string(getpid()) + "_" + Name;
}

//===----------------------------------------------------------------------===//
// ExactSum: the determinism bedrock
//===----------------------------------------------------------------------===//

// A spread of magnitudes wide enough that naive double summation is
// order-sensitive (the test below proves it is), deterministic seed.
std::vector<double> mixedMagnitudes(std::size_t N) {
  std::mt19937_64 Rng(0x5eed);
  std::vector<double> V;
  V.reserve(N);
  for (std::size_t I = 0; I != N; ++I) {
    double Mant = static_cast<double>(Rng() >> 11);
    int Exp = static_cast<int>(Rng() % 160) - 80;
    V.push_back(std::ldexp(Mant, Exp));
  }
  return V;
}

TEST(ExactSum, PermutationInvariantBits) {
  std::vector<double> V = mixedMagnitudes(500);

  ExactSum Forward;
  double NaiveFwd = 0;
  for (double X : V) {
    Forward.add(X);
    NaiveFwd += X;
  }

  std::vector<double> Shuffled = V;
  std::mt19937_64 Rng(42);
  int NaiveDiffers = 0;
  for (int Round = 0; Round != 8; ++Round) {
    std::shuffle(Shuffled.begin(), Shuffled.end(), Rng);
    ExactSum S;
    double Naive = 0;
    for (double X : Shuffled) {
      S.add(X);
      Naive += X;
    }
    NaiveDiffers += Naive != NaiveFwd;
    EXPECT_TRUE(S == Forward);
    EXPECT_EQ(S.toDouble(), Forward.toDouble());
  }
  // Naive double accumulation IS order-sensitive on this input -- the
  // invariance above is not vacuous.
  EXPECT_GT(NaiveDiffers, 0);
}

TEST(ExactSum, MergeEqualsSequential) {
  std::vector<double> V = mixedMagnitudes(300);
  ExactSum Sequential;
  for (double X : V)
    Sequential.add(X);
  // Any sharding of the input, merged in any order, gives the same bits.
  for (std::size_t Shards : {2u, 3u, 7u}) {
    std::vector<ExactSum> Partial(Shards);
    for (std::size_t I = 0; I != V.size(); ++I)
      Partial[I % Shards].add(V[I]);
    ExactSum Merged;
    for (auto It = Partial.rbegin(); It != Partial.rend(); ++It)
      Merged.add(*It);
    EXPECT_TRUE(Merged == Sequential);
  }
}

TEST(ExactSum, CorrectlyRoundedTies) {
  // 2^53 + 1 is exactly halfway between 2^53 and 2^53 + 2; round to
  // nearest-even keeps 2^53. Naive double addition agrees here, but the
  // point is that ExactSum holds the exact value until toDouble().
  ExactSum A;
  A.add(std::ldexp(1.0, 53));
  A.add(1.0);
  EXPECT_EQ(A.toDouble(), std::ldexp(1.0, 53));
  // 2^53 + 3 is halfway between 2^53 + 2 and 2^53 + 4; even is + 4.
  // Naive summation gets this WRONG left-to-right ((2^53 + 1) + 2 ==
  // 2^53 + 2): only the exact accumulator sees the true tie.
  ExactSum B;
  B.add(std::ldexp(1.0, 53));
  B.add(1.0);
  B.add(2.0);
  EXPECT_EQ(B.toDouble(), std::ldexp(1.0, 53) + 4.0);
}

TEST(ExactSum, TruncationBelowLsbIsPerAddend) {
  // Bits below 2^-128 are dropped per addend, never accumulated.
  ExactSum S;
  for (int I = 0; I != 1000; ++I)
    S.add(std::ldexp(1.0, -129));
  EXPECT_TRUE(S.isZero());
  // 2^-128 itself is the LSB and representable.
  ExactSum T;
  T.add(std::ldexp(1.0, -128));
  EXPECT_EQ(T.toDouble(), std::ldexp(1.0, -128));
}

/// Same bits and same value: what every lane test asks of two sums.
void expectSameSum(const ExactSum &A, const ExactSum &B) {
  EXPECT_TRUE(A == B);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(A.toDouble()),
            std::bit_cast<std::uint64_t>(B.toDouble()));
}

TEST(ExactSum, AddProductMatchesDoubleProduct) {
  const std::uint64_t Two53 = std::uint64_t(1) << 53;
  const std::uint64_t Max = ~std::uint64_t(0);
  struct Point {
    std::uint64_t A, B;
  };
  // Products at and around the lane limit, factors that are not exact
  // doubles, and the largest product of all.
  const Point Points[] = {
      {0, 0},           {0, Max},           {1, 1},
      {Two53 - 1, 1},   {6361, 1416003655831}, // 2^53 - 1, factored
      {Two53, 1},       {1 << 26, 1 << 27},    // 2^53
      {Two53 + 1, 1},   {3, 3002399751580331}, // 2^53 + 1, factored
      {Two53 + 3, 1},   {(Two53 << 3) + 5, 1}, // A >= 2^53, B = 1
      {1ull << 32, 1ull << 32},                // A = B = 2^32
      {Max, Max},                              // A = B = 2^64 - 1
  };
  for (const Point &Pt : Points) {
    SCOPED_TRACE(testing::Message() << Pt.A << " x " << Pt.B);
    double Product = static_cast<double>(Pt.A) * static_cast<double>(Pt.B);
    ExactSum Lane, Double;
    Lane.addProduct(Pt.A, Pt.B);
    Double.add(Product);
    expectSameSum(Lane, Double);
    EXPECT_EQ(Lane.isZero(), Product == 0.0);
    // On top of a fractional limb value the two still agree.
    Lane.add(0.375);
    Double.add(0.375);
    expectSameSum(Lane, Double);
  }
}

TEST(ExactSum, LaneMergeEqualsSequential) {
  // Both sides hold lane values (and limb values): merging moves the
  // other side's lane into the limbs, which must not change the sum.
  std::mt19937_64 Rng(7);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> Products;
  for (int I = 0; I != 400; ++I)
    Products.push_back({Rng() >> (11 + I % 40), Rng() >> (40 + I % 24)});
  ExactSum Sequential;
  for (auto [A, B] : Products)
    Sequential.addProduct(A, B);
  for (std::size_t Shards : {2u, 3u, 7u}) {
    std::vector<ExactSum> Partial(Shards);
    for (std::size_t I = 0; I != Products.size(); ++I)
      Partial[I % Shards].addProduct(Products[I].first, Products[I].second);
    ExactSum Merged;
    for (auto It = Partial.rbegin(); It != Partial.rend(); ++It)
      Merged.add(*It);
    expectSameSum(Merged, Sequential);
    // Merging into a side that keeps adding to its own lane afterwards.
    ExactSum Mixed = Partial[0];
    for (std::size_t K = 1; K != Shards; ++K)
      Mixed.add(Partial[K]);
    Mixed.addProduct(3, 5);
    ExactSum Expected = Sequential;
    Expected.add(15.0);
    expectSameSum(Mixed, Expected);
  }
}

TEST(ExactSum, LaneAndLimbPermutationsAgree) {
  // A mix of lane adds, products past the lane, and fractional doubles:
  // every order gives the same bits, and the same value as adding each
  // product as a double.
  struct Op {
    bool Product;
    std::uint64_t A, B;
    double V;
  };
  std::mt19937_64 Rng(11);
  std::vector<Op> Ops;
  for (int I = 0; I != 300; ++I) {
    switch (I % 3) {
    case 0: // lane: product below 2^53
      Ops.push_back({true, Rng() >> 40, Rng() >> 36, 0});
      break;
    case 1: // limbs: product above 2^53
      Ops.push_back({true, Rng() >> 8, Rng() >> 20, 0});
      break;
    default: // limbs: a fractional double
      Ops.push_back({false, 0, 0, std::ldexp(double(Rng() >> 11), -60)});
      break;
    }
  }
  ExactSum Reference;
  for (const Op &O : Ops)
    Reference.add(O.Product ? double(O.A) * double(O.B) : O.V);
  for (int Round = 0; Round != 6; ++Round) {
    std::shuffle(Ops.begin(), Ops.end(), Rng);
    ExactSum S;
    for (const Op &O : Ops) {
      if (O.Product)
        S.addProduct(O.A, O.B);
      else
        S.add(O.V);
    }
    expectSameSum(S, Reference);
  }
}

//===----------------------------------------------------------------------===//
// OpenIndex: the per-record hot-path index
//===----------------------------------------------------------------------===//

TEST(OpenIndex, InsertLookupThroughGrowth) {
  OpenIndex<std::uint32_t> Idx;
  const std::uint32_t N = 20000;
  for (std::uint32_t I = 0; I != N; ++I)
    EXPECT_EQ(Idx.lookupOrInsert(I * 7 + 1, I), I);
  EXPECT_EQ(Idx.size(), N);
  // Every key survives the rehashes with its original value.
  for (std::uint32_t I = 0; I != N; ++I)
    EXPECT_EQ(Idx.lookupOrInsert(I * 7 + 1, 0xDEAD), I);
  EXPECT_EQ(Idx.size(), N);
}

TEST(OpenIndex, InvalidSiteKeyIsStorable) {
  // Empty slots are tagged on the value, so the all-ones key (the
  // never-used last-use bucket) is an ordinary key.
  OpenIndex<std::uint32_t> Idx;
  EXPECT_EQ(Idx.lookupOrInsert(InvalidSite, 7), 7u);
  EXPECT_EQ(Idx.lookupOrInsert(InvalidSite, 9), 7u);
  EXPECT_EQ(Idx.lookupOrInsert(0, 1), 1u);
  EXPECT_EQ(Idx.size(), 2u);
}

TEST(OpenIndex, SizeHintPreservesSemantics) {
  OpenIndex<std::uint64_t> Hinted(1000), Cold;
  for (std::uint64_t I = 0; I != 1000; ++I) {
    std::uint64_t Key = I * 0x10001;
    EXPECT_EQ(Hinted.lookupOrInsert(Key, static_cast<std::uint32_t>(I)),
              Cold.lookupOrInsert(Key, static_cast<std::uint32_t>(I)));
  }
}

//===----------------------------------------------------------------------===//
// SiteGroupFold: the integer lane against plain double sums
//===----------------------------------------------------------------------===//

/// Records whose drag, drag^2, lifetime^2 and bytes x lifetime sit on
/// both sides of 2^53, spread over three sites, two last-use sites and
/// three class buckets.
std::vector<ObjectRecord> laneBoundaryRecords() {
  const ByteTime T53 = ByteTime(1) << 53;
  struct Shape {
    std::uint32_t Bytes;
    ByteTime Life, Drag;
    bool Used;
  };
  const Shape Shapes[] = {
      {1u << 20, (1ull << 33) + 7, (1ull << 33) - 1, true}, // drag < 2^53
      {1u << 20, (1ull << 33) + 7, 1ull << 33, true},       // drag = 2^53
      {1u << 20, (1ull << 33) + 7, (1ull << 33) + 1, true}, // drag > 2^53
      {3, 3002399751580331 + 9, 3002399751580331, true},    // 2^53 + 1
      {5, 94906265, 18981253, true}, // drag^2, life^2 just below 2^53
      {2, 94906266, 47453133, true}, // drag^2, life^2 just above 2^53
      {1u << 21, (1ull << 32) - 1, 100, true},  // bytes x life < 2^53
      {1u << 21, (1ull << 32) + 1, 4096, true}, // bytes x life > 2^53
      {1, T53 - 1, T53 - 1, false},             // never used: drag = life
      {1, T53 + 1, T53 + 1, false},             // drag time not exact
      {~0u, 1ull << 62, 1ull << 61, true},
      {48, 5000, 0, true},
      {0, 10, 10, false},
  };
  std::vector<ObjectRecord> Records;
  for (int Rep = 0; Rep != 2; ++Rep)
    for (const Shape &Sh : Shapes) {
      std::size_t I = Records.size();
      ObjectRecord R;
      R.Id = I + 1;
      R.Bytes = Sh.Bytes;
      R.AllocTime = 1000 * I;
      R.CollectTime = R.AllocTime + Sh.Life;
      R.LastUseTime = Sh.Used ? R.CollectTime - Sh.Drag : R.AllocTime;
      R.FirstUseTime = R.AllocTime;
      R.AllocSite = static_cast<SiteId>(I % 3);
      R.UsedOutsideInit = Sh.Used;
      R.LastUseSite = Sh.Used ? static_cast<SiteId>(10 + I % 2) : InvalidSite;
      R.UseCount = Sh.Used ? 1 : 0;
      R.IsArray = I % 4 == 0;
      R.AKind = ir::ArrayKind::Double;
      if (!R.IsArray)
        R.Class = ir::ClassId(static_cast<std::uint32_t>(I % 2));
      Records.push_back(R);
    }
  return Records;
}

TEST(SiteGroupFold, LaneBoundaryMatchesDoubleSums) {
  // The oracle is the report's definition written with ExactSum::add
  // (double) only, every record weighted (W = 1 on exact logs). The
  // materialized DragReport runs the same fold, so it cannot serve.
  std::vector<ObjectRecord> Records = laneBoundaryRecords();
  for (std::uint64_t Rate : {std::uint64_t(0), std::uint64_t(65536)}) {
    SCOPED_TRACE(testing::Message() << "sample rate " << Rate);
    struct RefGroup {
      std::uint64_t N = 0, NeverUsed = 0, Bytes = 0, Large = 0;
      ExactSum EstObjects, EstBytes, TotalDrag, Variance, NeverUsedDrag;
      ExactSum DragSum, DragSq, DragTimeSum, DragTimeSq, LifeSum, LifeSq;
      double DragMin = INFINITY, DragMax = -INFINITY;
      double DragTimeMin = INFINITY, DragTimeMax = -INFINITY;
      double LifeMin = INFINITY, LifeMax = -INFINITY;
      std::array<std::uint64_t, SiteGroup::NumHistoBuckets> Histo = {};
      std::map<SiteId, ExactSum> LastUse;
    };
    struct RefClass {
      std::uint64_t N = 0, Bytes = 0, NeverUsed = 0;
      ExactSum Drag;
    };
    std::map<SiteId, RefGroup> Groups;
    std::map<std::pair<bool, std::uint32_t>, RefClass> Classes;
    ExactSum Total, Reachable, InUse;
    for (const ObjectRecord &R : Records) {
      double Bytes = static_cast<double>(R.Bytes);
      double DragRaw = Bytes * static_cast<double>(R.dragTime());
      double DragTime = static_cast<double>(R.dragTime());
      double Life = static_cast<double>(R.lifeTime());
      double P = profiler::sampleProbability(R.Bytes, Rate);
      double W = Rate ? 1.0 / P : 1.0;
      double Drag = DragRaw * W;
      RefGroup &G = Groups[R.AllocSite];
      ++G.N;
      G.Bytes += R.Bytes;
      G.EstObjects.add(W);
      G.EstBytes.add(W * Bytes);
      G.TotalDrag.add(Drag);
      G.Variance.add(Rate ? profiler::sampleVarianceTerm(DragRaw, P) : 0.0);
      G.DragSum.add(DragRaw);
      G.DragSq.add(DragRaw * DragRaw);
      G.DragTimeSum.add(DragTime);
      G.DragTimeSq.add(DragTime * DragTime);
      G.LifeSum.add(Life);
      G.LifeSq.add(Life * Life);
      G.DragMin = std::min(G.DragMin, DragRaw);
      G.DragMax = std::max(G.DragMax, DragRaw);
      G.DragTimeMin = std::min(G.DragTimeMin, DragTime);
      G.DragTimeMax = std::max(G.DragTimeMax, DragTime);
      G.LifeMin = std::min(G.LifeMin, Life);
      G.LifeMax = std::max(G.LifeMax, Life);
      if (R.neverUsed()) {
        ++G.NeverUsed;
        G.NeverUsedDrag.add(Drag);
      }
      G.Large += R.lifeTime() > 0 && DragTime >= Life / 3.0;
      ++G.Histo[SiteGroup::histoBucket(R.dragTime())];
      G.LastUse[R.neverUsed() ? InvalidSite : R.LastUseSite].add(Drag);
      RefClass &C = Classes[{R.IsArray, R.IsArray ? 0u : R.Class.Index}];
      ++C.N;
      C.Bytes += R.Bytes;
      C.NeverUsed += R.neverUsed();
      C.Drag.add(Drag);
      Total.add(Drag);
      Reachable.add(W * Bytes * Life);
      InUse.add(W * Bytes * static_cast<double>(R.inUseTime()));
    }

    auto ExpectStat = [](const RunningStat &S, std::uint64_t N,
                         const ExactSum &Sum, const ExactSum &Sq, double Min,
                         double Max) {
      double Mean = Sum.toDouble() / static_cast<double>(N);
      double M2 = std::max(0.0, Sq.toDouble() - Sum.toDouble() * Mean);
      EXPECT_EQ(S.count(), N);
      EXPECT_EQ(S.mean(), Mean);
      EXPECT_EQ(S.variance(), M2 / static_cast<double>(N));
      EXPECT_EQ(S.min(), Min);
      EXPECT_EQ(S.max(), Max);
    };
    auto Check = [&](const DragReportData &D) {
      ASSERT_EQ(D.Groups.size(), Groups.size());
      for (const auto &[Site, G] : Groups) {
        SCOPED_TRACE(testing::Message() << "site " << Site);
        const SiteGroup &Out = D.Groups[D.GroupIndex.at(Site)];
        EXPECT_EQ(Out.ObjectCount, G.N);
        EXPECT_EQ(Out.NeverUsedCount, G.NeverUsed);
        EXPECT_EQ(Out.TotalBytes, G.Bytes);
        EXPECT_EQ(Out.LargeDragCount, G.Large);
        EXPECT_EQ(Out.EstObjects, G.EstObjects.toDouble());
        EXPECT_EQ(Out.EstBytes, G.EstBytes.toDouble());
        EXPECT_EQ(Out.TotalDrag, G.TotalDrag.toDouble());
        EXPECT_EQ(Out.NeverUsedDrag, G.NeverUsedDrag.toDouble());
        EXPECT_EQ(Out.DragVariance, G.Variance.toDouble());
        EXPECT_EQ(Out.DragTimeHisto, G.Histo);
        ExpectStat(Out.DragPerObject, G.N, G.DragSum, G.DragSq, G.DragMin,
                   G.DragMax);
        ExpectStat(Out.DragTimePerObject, G.N, G.DragTimeSum, G.DragTimeSq,
                   G.DragTimeMin, G.DragTimeMax);
        ExpectStat(Out.LifeTimePerObject, G.N, G.LifeSum, G.LifeSq, G.LifeMin,
                   G.LifeMax);
        std::vector<std::pair<SiteId, SpaceTime>> LastUse;
        for (const auto &[Use, Sum] : G.LastUse)
          LastUse.push_back({Use, Sum.toDouble()});
        EXPECT_EQ(Out.DragByLastUse, LastUse);
      }
      ASSERT_EQ(D.ClassGroups.size(), Classes.size());
      for (const ClassGroup &Out : D.ClassGroups) {
        const RefClass &C =
            Classes.at({Out.IsArray, Out.IsArray ? 0u : Out.Class.Index});
        EXPECT_EQ(Out.ObjectCount, C.N);
        EXPECT_EQ(Out.TotalBytes, C.Bytes);
        EXPECT_EQ(Out.NeverUsedCount, C.NeverUsed);
        EXPECT_EQ(Out.TotalDrag, C.Drag.toDouble());
      }
      ASSERT_EQ(D.CoarseGroups.size(), 1u); // no site has a frame
      EXPECT_EQ(D.CoarseGroups[0].ObjectCount, Records.size());
      EXPECT_EQ(D.TotalDragSum, Total.toDouble());
      EXPECT_EQ(D.ReachableSum, Reachable.toDouble());
      EXPECT_EQ(D.InUseSum, InUse.toDouble());
    };

    ir::Program P;
    profiler::SiteTable Sites;
    SiteGroupFold Sequential(Rate);
    SiteGroupFold Left(Rate), Right(Rate);
    for (std::size_t I = 0; I != Records.size(); ++I) {
      Sequential.fold(Records[I]);
      (I % 3 ? Left : Right).fold(Records[I]);
    }
    Left.merge(Right);
    Check(Sequential.finish(P, Sites));
    Check(Left.finish(P, Sites));
  }
}

//===----------------------------------------------------------------------===//
// Streaming vs materialized vs sharded: the bit-identity matrix
//===----------------------------------------------------------------------===//

void recordWorkload(const benchmarks::BenchmarkProgram &B,
                    std::uint64_t SampleBytes, bool Compress,
                    const std::string &Path) {
  FileEventSink Sink;
  FileEventSink::Options FO;
  FO.Sampling.SampleBytes = SampleBytes;
  FO.Format = effectiveFormat(FO.Format, FO.Sampling, Compress);
  FO.Compress = Compress;
  ASSERT_TRUE(Sink.open(Path, FO));
  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.Sink = &Sink;
  Opts.SampleBytes = SampleBytes;
  vm::VirtualMachine VM(B.Prog, Opts);
  VM.setInputs(B.DefaultInputs);
  ASSERT_EQ(VM.run(), vm::Interpreter::Status::Ok);
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

// One workload, one wire config: run streaming (sequential), streaming
// (sharded x3) and materialized passes over the same recording and
// require identical bits everywhere.
void checkIdentity(const benchmarks::BenchmarkProgram &B,
                   std::uint64_t SampleBytes, bool Compress,
                   bool &SawSharded) {
  std::string Tag = B.Name + (SampleBytes ? "_sampled" : "_exact") +
                    (Compress ? "_lz" : "_raw");
  std::string Jdev = tempPath(Tag + ".jdev");
  recordWorkload(B, SampleBytes, Compress, Jdev);

  StreamAnalysisOptions Base;
  Base.WantReport = true;
  Base.WantLifetimes = true;
  Base.CurveSamples = 64;

  // Sequential streaming pass, with the CSV riding along.
  StreamAnalysisOptions SO = Base;
  SO.ExportCsvPath = tempPath(Tag + "_s.csv");
  StreamAnalysisResult S;
  std::string Err;
  ASSERT_TRUE(analyzeEventStream(Jdev, B.Prog, SO, S, &Err)) << Err;
  EXPECT_FALSE(S.Materialized) << Tag;
  EXPECT_FALSE(S.Sharded) << Tag;

  // Materialized oracle.
  StreamAnalysisOptions MO = Base;
  MO.ForceMaterialize = true;
  MO.ExportCsvPath = tempPath(Tag + "_m.csv");
  StreamAnalysisResult M;
  ASSERT_TRUE(analyzeEventStream(Jdev, B.Prog, MO, M, &Err)) << Err;
  EXPECT_TRUE(M.Materialized);

  // Sharded streaming pass (export stays sequential by contract, so no
  // CSV here).
  StreamAnalysisOptions PO = Base;
  PO.Jobs = 3;
  StreamAnalysisResult P;
  ASSERT_TRUE(analyzeEventStream(Jdev, B.Prog, PO, P, &Err)) << Err;
  EXPECT_FALSE(P.Materialized) << Tag;
  SawSharded |= P.Sharded;

  // The rendered drag report -- ranking, every formatted number, the
  // Patterns section -- byte-identical across all three pipelines.
  std::string Rendered = renderDragReport(*M.Report);
  EXPECT_EQ(renderDragReport(*S.Report), Rendered) << Tag;
  EXPECT_EQ(renderDragReport(*P.Report), Rendered) << Tag;

  // Lifetime decomposition: exact double equality, field by field.
  for (const StreamAnalysisResult *R : {&S, &P}) {
    EXPECT_EQ(R->Lifetimes.Lag, M.Lifetimes.Lag) << Tag;
    EXPECT_EQ(R->Lifetimes.Use, M.Lifetimes.Use) << Tag;
    EXPECT_EQ(R->Lifetimes.Drag, M.Lifetimes.Drag) << Tag;
    EXPECT_EQ(R->Lifetimes.Void, M.Lifetimes.Void) << Tag;
  }

  // Curves: identical grids, identical byte counts.
  EXPECT_EQ(S.Curve.Times, M.Curve.Times) << Tag;
  EXPECT_EQ(S.Curve.ReachableBytes, M.Curve.ReachableBytes) << Tag;
  EXPECT_EQ(S.Curve.InUseBytes, M.Curve.InUseBytes) << Tag;
  EXPECT_EQ(P.Curve.ReachableBytes, M.Curve.ReachableBytes) << Tag;
  EXPECT_EQ(P.Curve.InUseBytes, M.Curve.InUseBytes) << Tag;

  // CSV export: byte-identical files, same row count.
  EXPECT_EQ(slurp(SO.ExportCsvPath), slurp(MO.ExportCsvPath)) << Tag;
  EXPECT_EQ(S.ExportRows, M.ExportRows) << Tag;

  // Same records went through every pipeline.
  EXPECT_EQ(S.RecordsFolded, M.RecordsFolded) << Tag;
  EXPECT_EQ(P.RecordsFolded, M.RecordsFolded) << Tag;

  std::remove(Jdev.c_str());
  std::remove(SO.ExportCsvPath.c_str());
  std::remove(MO.ExportCsvPath.c_str());
}

TEST(StreamingIdentity, NineWorkloadsExactAndSampledV4AndV6) {
  bool SawSharded = false;
  for (const auto &B : benchmarks::buildAll())
    for (std::uint64_t SampleBytes : {std::uint64_t(0), std::uint64_t(4096)})
      for (bool Compress : {false, true}) {
        checkIdentity(B, SampleBytes, Compress, SawSharded);
        if (HasFatalFailure())
          return;
      }
  // At least some recordings have enough chunks to actually shard; the
  // Jobs=3 legs above were not all degenerate single-shard runs.
  EXPECT_TRUE(SawSharded);
}

//===----------------------------------------------------------------------===//
// The R&R identity: lag + use + drag4 + void == reachable
//===----------------------------------------------------------------------===//

profiler::ProfileLog profileLive(const benchmarks::BenchmarkProgram &B,
                                 std::uint64_t SampleBytes) {
  DragProfiler Prof(B.Prog);
  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.SampleBytes = SampleBytes;
  Prof.attachTo(Opts);
  vm::VirtualMachine VM(B.Prog, Opts);
  VM.setInputs(B.DefaultInputs);
  EXPECT_EQ(VM.run(), vm::Interpreter::Status::Ok) << B.Name;
  return Prof.takeLog();
}

TEST(LifetimeIdentity, ExactIntegerIdentityAcrossWorkloads) {
  for (const auto &B : benchmarks::buildAll())
    for (std::uint64_t SampleBytes : {std::uint64_t(0), std::uint64_t(4096)}) {
      profiler::ProfileLog Log = profileLive(B, SampleBytes);
      std::string Tag = B.Name + (SampleBytes ? "/sampled" : "/exact");

      // Streaming: the fold's 128-bit integer sums satisfy the identity
      // EXACTLY -- not within epsilon.
      LifetimeFold LF;
      for (const auto &R : Log.Records)
        LF.fold(R);
      EXPECT_TRUE(LF.identityExact()) << Tag;

      // And a sharded fold of the same records preserves it.
      LifetimeFold A, Z;
      for (std::size_t I = 0; I != Log.Records.size(); ++I)
        (I % 2 ? A : Z).fold(Log.Records[I]);
      Z.merge(A);
      EXPECT_TRUE(Z.identityExact()) << Tag;
      EXPECT_EQ(Z.reachableInt(), LF.reachableInt()) << Tag;

      // Materialized: decomposeLifetimes rounds each integral once, so
      // the double-space identity holds to rounding of the exact sums.
      LifetimeDecomposition D = decomposeLifetimes(Log);
      double Reach = static_cast<double>(LF.reachableInt());
      EXPECT_NEAR(D.total(), Reach, Reach * 1e-12) << Tag;
      // The profiler's own reachable integral agrees with the fold's.
      EXPECT_NEAR(Log.reachableIntegral(), Reach, Reach * 1e-9) << Tag;
    }
}

//===----------------------------------------------------------------------===//
// End-time peek
//===----------------------------------------------------------------------===//

TEST(StreamingAnalysis, PeekEndTimeMatchesDecode) {
  auto All = benchmarks::buildAll();
  const auto &B = All.front();
  for (bool Compress : {false, true}) {
    std::string Jdev = tempPath("peek.jdev");
    recordWorkload(B, 0, Compress, Jdev);
    ByteTime Peeked = 0;
    ASSERT_TRUE(peekStreamEndTime(Jdev, Peeked));
    StreamAnalysisOptions O;
    O.WantReport = false;
    StreamAnalysisResult R;
    std::string Err;
    ASSERT_TRUE(analyzeEventStream(Jdev, B.Prog, O, R, &Err)) << Err;
    EXPECT_EQ(Peeked, R.Shell->EndTime);
    std::remove(Jdev.c_str());
  }
}

TEST(StreamingAnalysis, SampledJavacTrailerStateUnderOneMiB) {
  // The trailers live on the VM's objects, and every record arrives
  // finished: the analysis keeps only its O(sites) folds, whatever
  // object ids a 64 KiB-sampled stream skips through.
  benchmarks::BenchmarkProgram B = benchmarks::buildJavac();
  std::string Jdev = tempPath("javac_sampled.jdev");
  recordWorkload(B, DefaultSampleBytes, /*Compress=*/true, Jdev);
  StreamAnalysisOptions O;
  StreamAnalysisResult R;
  std::string Err;
  ASSERT_TRUE(analyzeEventStream(Jdev, B.Prog, O, R, &Err)) << Err;
  EXPECT_FALSE(R.Materialized);
  EXPECT_GT(R.RecordsFolded, 0u);
  EXPECT_GT(R.FoldStateBytes, 0u);
  EXPECT_LT(R.FoldStateBytes, std::size_t(1) << 20)
      << R.RecordsFolded << " records folded";
  std::remove(Jdev.c_str());
}

// The committed recordings (tests/data/README.md), sequential or
// sharded, must analyze to the materialized analysis of a live run of
// the same benchmark with the same sampling. v2/v3 have no footer to
// peek an end time from, so a curve request sends them down the
// materialized fallback; v4-v6 carry a footer and stream.
TEST(StreamingAnalysis, LegacyFixturesMatchTheLiveAnalysis) {
  struct Fixture {
    const char *File;
    std::uint64_t SampleBytes;
    bool Materialized;
  };
  const Fixture Fixtures[] = {
      {"juru_v2.jdev", 0, true},
      {"juru_v3_512.jdev", 0, true},
      {"juru_v4.jdev", 0, false},
      {"juru_v5.jdev", DefaultSampleBytes, false},
      {"juru_v6.jdev", 0, false},
      {"juru_v7.jdev", 0, false},
      {"juru_v7_sampled.jdev", DefaultSampleBytes, false},
  };
  benchmarks::BenchmarkProgram B = benchmarks::buildJuru();
  for (const Fixture &Fx : Fixtures) {
    profiler::ProfileLog Live = profileLive(B, Fx.SampleBytes);
    std::string LiveReport = renderDragReport(DragReport(B.Prog, Live));
    HeapCurve LiveCurve = buildHeapCurve(Live, 64);
    for (unsigned Jobs : {1u, 4u}) {
      std::string Tag = std::string(Fx.File) + " jobs " + std::to_string(Jobs);
      StreamAnalysisOptions O;
      O.Jobs = Jobs;
      O.CurveSamples = 64;
      StreamAnalysisResult R;
      std::string Err;
      ASSERT_TRUE(analyzeEventStream(
          std::string(JDRAG_TEST_DATA_DIR) + "/" + Fx.File, B.Prog, O, R,
          &Err))
          << Tag << ": " << Err;
      EXPECT_EQ(R.Materialized, Fx.Materialized) << Tag;
      EXPECT_EQ(renderDragReport(*R.Report), LiveReport) << Tag;
      EXPECT_EQ(R.Curve.Times, LiveCurve.Times) << Tag;
      EXPECT_EQ(R.Curve.ReachableBytes, LiveCurve.ReachableBytes) << Tag;
      EXPECT_EQ(R.Curve.InUseBytes, LiveCurve.InUseBytes) << Tag;
    }
  }
}

} // namespace
