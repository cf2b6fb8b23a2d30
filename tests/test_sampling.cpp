//===- tests/test_sampling.cpp - Sampled profiling tests ------------------===//
//
// Part of jdrag test suite.
//
// Covers the always-on sampling mode end to end (docs/sampling.md):
// the geometric gap PRNG (seed determinism, mean hit rate), the
// inverse-probability math, the v5 stream header round trip, and --
// the load-bearing statistical claim -- that a sampled profile's
// drag ranking agrees with the exact profile's over the nine paper
// workloads (Spearman rank correlation of the top sites >= 0.8) while
// its scaled drag total lands near the exact total.
//
//===----------------------------------------------------------------------===//

#include "analysis/DragReport.h"
#include "benchmarks/Benchmarks.h"
#include "profiler/DragProfiler.h"
#include "profiler/EventStream.h"
#include "profiler/Sampling.h"
#include "vm/VirtualMachine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

using namespace jdrag;
using namespace jdrag::profiler;

namespace {

/// Pid-unique scratch path: concurrent ctest runs (e.g. the default and
/// sanitize presets) must not share files.
std::string tempPath(const char *Name) {
  return std::string("/tmp/jdrag_sampling_") + std::to_string(getpid()) +
         "_" + Name;
}

//===----------------------------------------------------------------------===//
// The sampling decision: SamplePolicy and the probability math
//===----------------------------------------------------------------------===//

TEST(SamplePolicy, DisabledPolicySamplesEverything) {
  SamplePolicy P{SamplingParams{}};
  EXPECT_FALSE(P.enabled());
  for (int I = 0; I != 1000; ++I)
    EXPECT_TRUE(P.sampleAllocation(1));
}

TEST(SamplePolicy, SeedDeterminism) {
  SamplingParams A;
  A.SampleBytes = 4096;
  A.SampleSeed = 1;
  SamplePolicy PA(A), PB(A);
  SamplingParams C = A;
  C.SampleSeed = 2;
  SamplePolicy PC(C);
  std::vector<bool> SA, SB, SC;
  for (int I = 0; I != 20000; ++I) {
    SA.push_back(PA.sampleAllocation(64));
    SB.push_back(PB.sampleAllocation(64));
    SC.push_back(PC.sampleAllocation(64));
  }
  EXPECT_EQ(SA, SB); // same seed, same decisions
  EXPECT_NE(SA, SC); // different seed, different subset
}

// The byte-countdown consumes geometric gaps with mean SampleBytes, so
// over N small allocations the hit count is Binomial(N, p(size)); a
// six-sigma band around the mean is a deterministic-yet-meaningful
// sanity check of the gap distribution.
TEST(SamplePolicy, HitRateMatchesInclusionProbability) {
  SamplingParams S;
  S.SampleBytes = 4096;
  S.SampleSeed = 7;
  SamplePolicy P(S);
  const std::uint64_t Alloc = 64;
  const int N = 200000;
  int Hits = 0;
  for (int I = 0; I != N; ++I)
    Hits += P.sampleAllocation(Alloc);
  double Prob = sampleProbability(Alloc, S.SampleBytes);
  double Mean = N * Prob;
  double Sigma = std::sqrt(N * Prob * (1 - Prob));
  EXPECT_NEAR(static_cast<double>(Hits), Mean, 6 * Sigma);
}

// An allocation much larger than the sampling interval always trips the
// countdown: the maximum representable gap is ~53*ln2*rate, far below
// the allocation size here. Large objects are never missed.
TEST(SamplePolicy, LargeAllocationsAlwaysSampled) {
  SamplingParams S;
  S.SampleBytes = 1024;
  S.SampleSeed = 3;
  SamplePolicy P(S);
  for (int I = 0; I != 1000; ++I)
    EXPECT_TRUE(P.sampleAllocation(1 << 20));
}

TEST(SamplingMath, ProbabilityWeightVariance) {
  // Rate 0 = exact mode: everything has probability 1, weight 1.
  EXPECT_DOUBLE_EQ(sampleProbability(123, 0), 1.0);
  EXPECT_DOUBLE_EQ(sampleWeight(123, 0), 1.0);
  EXPECT_DOUBLE_EQ(sampleVarianceTerm(10.0, 1.0), 0.0);
  // p(s) = 1 - exp(-s/rate).
  EXPECT_NEAR(sampleProbability(4096, 4096), 1 - std::exp(-1.0), 1e-12);
  double P = sampleProbability(64, 4096);
  EXPECT_NEAR(P, 1 - std::exp(-64.0 / 4096.0), 1e-12);
  EXPECT_NEAR(sampleWeight(64, 4096), 1.0 / P, 1e-12);
  // Var term (1-p)/p^2 * v^2 and the 1.96-sigma CI.
  EXPECT_NEAR(sampleVarianceTerm(2.0, 0.5), (0.5 / 0.25) * 4.0, 1e-12);
  EXPECT_NEAR(ci95(4.0), 1.96 * 2.0, 1e-12);
  // Probability is monotone in size and rate.
  EXPECT_LT(sampleProbability(64, 4096), sampleProbability(128, 4096));
  EXPECT_GT(sampleProbability(64, 4096), sampleProbability(64, 8192));
}

//===----------------------------------------------------------------------===//
// The v5 stream header
//===----------------------------------------------------------------------===//

TEST(SampledStream, V5HeaderRoundTrip) {
  std::string Path = tempPath("hdr.jdev");
  {
    FileEventSink Sink;
    FileEventSink::Options FO;
    FO.Sampling.SampleBytes = 1 << 20;
    FO.Sampling.SampleSeed = 0xabcdef;
    FO.Format = effectiveFormat(FO.Format, FO.Sampling);
    EXPECT_EQ(FO.Format, WireFormat::V8);
    ASSERT_TRUE(Sink.open(Path, FO));
    EXPECT_TRUE(Sink.finish());
  }
  StreamHeaderInfo Info;
  std::string Err;
  ASSERT_TRUE(readStreamHeader(Path, Info, &Err)) << Err;
  EXPECT_EQ(Info.Format, WireFormat::V8);
  EXPECT_EQ(Info.Sampling.SampleBytes, 1u << 20);
  EXPECT_EQ(Info.Sampling.SampleSeed, 0xabcdefULL);
  std::remove(Path.c_str());
}

// Sampling disabled keeps the default format: the stream's header says
// SampleBytes 0 and readers see "exact".
TEST(SampledStream, DisabledSamplingWritesAnExactHeader) {
  SamplingParams Off;
  EXPECT_EQ(effectiveFormat(DefaultWireFormat, Off), DefaultWireFormat);
  std::string Path = tempPath("exacthdr.jdev");
  {
    FileEventSink Sink;
    ASSERT_TRUE(Sink.open(Path, FileEventSink::Options()));
    EXPECT_TRUE(Sink.finish());
  }
  StreamHeaderInfo Info;
  std::string Err;
  ASSERT_TRUE(readStreamHeader(Path, Info, &Err)) << Err;
  EXPECT_EQ(Info.Format, DefaultWireFormat);
  EXPECT_EQ(Info.Sampling.SampleBytes, 0u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// End-to-end: sampled drag reports vs exact over the paper workloads
//===----------------------------------------------------------------------===//

profiler::ProfileLog profileWorkload(const benchmarks::BenchmarkProgram &B,
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

/// Content key for a nested site: chains are interned per run, so ids
/// are not comparable across runs, but the frame list is.
std::string siteKey(const profiler::ProfileLog &Log, SiteId Site) {
  std::string Key;
  for (const SiteFrame &F : Log.Sites.chain(Site))
    Key += std::to_string(F.Method.Index) + ":" + std::to_string(F.Pc) + ";";
  return Key;
}

/// A drag cluster: consecutive sites (drag-descending) whose exact
/// drags sit within 5% of each other, chained into one rank unit. The
/// paper workloads are full of exact ties (e.g. raytrace's 17
/// equal-sized private-array sites, 60 objects each); no finite sample
/// can order statistical ties, so rank agreement is only meaningful
/// over drag-*distinguishable* units, and a cluster's aggregate drag is
/// exactly what sampling does estimate well.
struct DragCluster {
  std::vector<std::string> Keys; ///< member site content keys
  double ExactDrag = 0;
};

std::vector<DragCluster> clusterExactSites(const analysis::DragReport &Exact,
                                           const profiler::ProfileLog &Log) {
  std::vector<DragCluster> Cs;
  double Prev = -1;
  for (const analysis::SiteGroup &G : Exact.groups()) {
    if (Cs.empty() || G.TotalDrag < Prev * 0.95)
      Cs.emplace_back();
    Cs.back().Keys.push_back(siteKey(Log, G.Site));
    Cs.back().ExactDrag += G.TotalDrag;
    Prev = G.TotalDrag;
  }
  return Cs;
}

/// Each cluster's aggregate drag estimate in the sampled report (0 if
/// the sample missed every member site).
std::vector<double> sampledClusterDrag(const std::vector<DragCluster> &Cs,
                                       const analysis::DragReport &Samp,
                                       const profiler::ProfileLog &SampLog) {
  std::map<std::string, double> BySite;
  for (const analysis::SiteGroup &G : Samp.groups())
    BySite[siteKey(SampLog, G.Site)] += G.TotalDrag;
  std::vector<double> Out;
  for (const DragCluster &C : Cs) {
    double Sum = 0;
    for (const std::string &K : C.Keys) {
      auto It = BySite.find(K);
      if (It != BySite.end())
        Sum += It->second;
    }
    Out.push_back(Sum);
  }
  return Out;
}

/// Spearman rank correlation over the exact top-K clusters: both sides
/// ranked by aggregate drag descending (stable on ties).
double spearmanTopClusters(const std::vector<DragCluster> &Cs,
                           const std::vector<double> &SampDrag,
                           std::size_t K) {
  std::size_t M = Cs.size();
  if (std::min(K, M) < 3)
    return 1.0;
  std::vector<std::size_t> EI(M), SI(M);
  for (std::size_t I = 0; I != M; ++I)
    EI[I] = SI[I] = I;
  std::stable_sort(EI.begin(), EI.end(), [&](std::size_t A, std::size_t B) {
    return Cs[A].ExactDrag > Cs[B].ExactDrag;
  });
  std::stable_sort(SI.begin(), SI.end(), [&](std::size_t A, std::size_t B) {
    return SampDrag[A] > SampDrag[B];
  });
  std::vector<double> ERank(M), SRank(M);
  for (std::size_t R = 0; R != M; ++R) {
    ERank[EI[R]] = static_cast<double>(R + 1);
    SRank[SI[R]] = static_cast<double>(R + 1);
  }
  std::size_t N = std::min(K, M);
  double SumD2 = 0;
  for (std::size_t R = 0; R != N; ++R) {
    double D = ERank[EI[R]] - SRank[EI[R]];
    SumD2 += D * D;
  }
  double Nd = static_cast<double>(N);
  return 1.0 - 6.0 * SumD2 / (Nd * (Nd * Nd - 1.0));
}

// The acceptance bar: at an interval scaled to these miniature
// workloads (8 KiB; they allocate single-digit MBs where production
// heaps ship the 64 KiB default), the sampled ranking of the top-10
// drag clusters must track the exact ranking (Spearman >= 0.8) on
// every paper workload, and the scaled drag total must land within 50%
// of the exact total. Fixed seed: fully deterministic, never flaky.
TEST(SampledProfile, RankCorrelationAcrossPaperWorkloads) {
  for (const benchmarks::BenchmarkProgram &B : benchmarks::buildAll()) {
    profiler::ProfileLog ExactLog = profileWorkload(B, 0);
    profiler::ProfileLog SampLog = profileWorkload(B, 8 * KB);
    EXPECT_EQ(ExactLog.SampleRate, 0u);
    EXPECT_EQ(SampLog.SampleRate, 8 * KB);
    EXPECT_LT(SampLog.Records.size(), ExactLog.Records.size()) << B.Name;
    analysis::DragReport Exact(B.Prog, ExactLog);
    analysis::DragReport Samp(B.Prog, SampLog);
    std::vector<DragCluster> Cs = clusterExactSites(Exact, ExactLog);
    double Rho = spearmanTopClusters(
        Cs, sampledClusterDrag(Cs, Samp, SampLog), 10);
    EXPECT_GE(Rho, 0.8) << B.Name << ": sampled ranking diverged";
    if (Exact.totalDrag() > 0) {
      double Ratio = Samp.totalDrag() / Exact.totalDrag();
      EXPECT_GT(Ratio, 0.5) << B.Name;
      EXPECT_LT(Ratio, 1.5) << B.Name;
    }
  }
}

// Coarser rates trade precision for overhead but must degrade
// gracefully: the correlation never inverts, and the heaviest exact
// cluster stays within the sampled top-3 -- the "overhead ladder"
// guarantee (docs/sampling.md) that always-on profiles stay actionable.
TEST(SampledProfile, RankingDegradesGracefullyUpTheRateLadder) {
  for (const benchmarks::BenchmarkProgram &B : benchmarks::buildAll()) {
    profiler::ProfileLog ExactLog = profileWorkload(B, 0);
    analysis::DragReport Exact(B.Prog, ExactLog);
    std::vector<DragCluster> Cs = clusterExactSites(Exact, ExactLog);
    if (Cs.empty())
      continue;
    std::size_t ExactWin = 0;
    for (std::size_t I = 1; I != Cs.size(); ++I)
      if (Cs[I].ExactDrag > Cs[ExactWin].ExactDrag)
        ExactWin = I;
    for (std::uint64_t Rate : {16 * KB, 32 * KB, DefaultSampleBytes}) {
      profiler::ProfileLog SampLog = profileWorkload(B, Rate);
      analysis::DragReport Samp(B.Prog, SampLog);
      std::vector<double> SD = sampledClusterDrag(Cs, Samp, SampLog);
      double Rho = spearmanTopClusters(Cs, SD, 10);
      EXPECT_GE(Rho, 0.3) << B.Name << " rate " << Rate;
      std::size_t Above = 0;
      for (double D : SD)
        Above += D > SD[ExactWin];
      EXPECT_LT(Above, 3u)
          << B.Name << " rate " << Rate
          << ": exact winner fell out of the sampled top-3";
    }
  }
}

// HT-scaled per-site estimates carry their own uncertainty: the 95% CI
// must be positive for sampled groups and zero everywhere on an exact
// log, and the estimated object counts must exceed the raw sample
// counts (every weight is >= 1).
TEST(SampledProfile, ConfidenceIntervalsAndScaledCounts) {
  auto B = benchmarks::buildAll();
  const benchmarks::BenchmarkProgram *Jack = nullptr;
  for (const auto &W : B)
    if (W.Name == "jack")
      Jack = &W;
  ASSERT_NE(Jack, nullptr);
  profiler::ProfileLog ExactLog = profileWorkload(*Jack, 0);
  analysis::DragReport Exact(Jack->Prog, ExactLog);
  for (const analysis::SiteGroup &G : Exact.groups()) {
    EXPECT_EQ(G.dragCI95(), 0.0);
    EXPECT_DOUBLE_EQ(G.EstObjects, static_cast<double>(G.ObjectCount));
    EXPECT_DOUBLE_EQ(G.EstBytes, static_cast<double>(G.TotalBytes));
  }
  profiler::ProfileLog SampLog = profileWorkload(*Jack, DefaultSampleBytes);
  analysis::DragReport Samp(Jack->Prog, SampLog);
  ASSERT_FALSE(Samp.groups().empty());
  for (const analysis::SiteGroup &G : Samp.groups()) {
    if (G.TotalDrag > 0)
      EXPECT_GT(G.dragCI95(), 0.0);
    EXPECT_GE(G.EstObjects, static_cast<double>(G.ObjectCount));
    EXPECT_GE(G.EstBytes, static_cast<double>(G.TotalBytes));
  }
}

// Record-to-file and live profiling of the same sampled run must agree:
// the v5 recording replays to the same scaled totals the live profiler
// saw, and the header self-describes the rate.
TEST(SampledProfile, FileRoundTripMatchesLive) {
  auto All = benchmarks::buildAll();
  const benchmarks::BenchmarkProgram *Jack = nullptr;
  for (const auto &W : All)
    if (W.Name == "jack")
      Jack = &W;
  ASSERT_NE(Jack, nullptr);
  std::string Path = tempPath("roundtrip.jdev");
  {
    FileEventSink Sink;
    FileEventSink::Options FO;
    FO.Sampling.SampleBytes = DefaultSampleBytes;
    FO.Format = effectiveFormat(FO.Format, FO.Sampling);
    ASSERT_TRUE(Sink.open(Path, FO));
    vm::VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.SampleBytes = DefaultSampleBytes;
    vm::VirtualMachine VM(Jack->Prog, Opts);
    VM.setInputs(Jack->DefaultInputs);
    ASSERT_EQ(VM.run(), vm::Interpreter::Status::Ok);
  }
  profiler::ProfileLog FileLog;
  std::string Err;
  ASSERT_TRUE(profiler::replayProfile(Path, Jack->Prog, ProfilerConfig(),
                                      FileLog, &Err))
      << Err;
  EXPECT_EQ(FileLog.SampleRate, DefaultSampleBytes);
  profiler::ProfileLog LiveLog = profileWorkload(*Jack, DefaultSampleBytes);
  EXPECT_EQ(FileLog.Records.size(), LiveLog.Records.size());
  analysis::DragReport FromFile(Jack->Prog, FileLog);
  analysis::DragReport FromLive(Jack->Prog, LiveLog);
  EXPECT_DOUBLE_EQ(FromFile.totalDrag(), FromLive.totalDrag());
  std::remove(Path.c_str());
}

// A sampled log survives the v06 object-log serialization with its
// sampling params intact, so `jdrag report <bench> <log>` scales
// exactly like the live run did.
TEST(SampledProfile, ProfileLogSerializationKeepsParams) {
  auto All = benchmarks::buildAll();
  profiler::ProfileLog Log = profileWorkload(All.front(), DefaultSampleBytes);
  std::string Path = tempPath("log.bin");
  ASSERT_TRUE(Log.writeFile(Path));
  profiler::ProfileLog Back;
  ASSERT_TRUE(profiler::ProfileLog::readFile(Path, Back));
  EXPECT_EQ(Back.SampleRate, Log.SampleRate);
  EXPECT_EQ(Back.SampleSeed, Log.SampleSeed);
  EXPECT_EQ(Back.Records.size(), Log.Records.size());
  std::remove(Path.c_str());
}

} // namespace
