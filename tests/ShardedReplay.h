//===- tests/ShardedReplay.h - Sharded replay against its oracle -*- C++ -*-===//
//
// Part of jdrag test suite.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sharded replay stores no records: replayProfileParallelFold hands each
/// finished one to a ShardFoldSink. The tests check it against the
/// sequential oracle, replayProfile(), by collecting what the sink
/// receives into a ProfileLog (records remapped to log-local site ids)
/// and comparing the two logs field by field. Shards finish records in
/// their own order, so both sides sort their records by one canonical
/// key first.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_TESTS_SHARDEDREPLAY_H
#define JDRAG_TESTS_SHARDEDREPLAY_H

#include "profiler/ParallelReplay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

namespace jdrag::testutil {

/// A ShardFoldSink that keeps every record it is handed, with the
/// stream site ids the replay gives them.
class RecordCollector final : public profiler::ShardFoldSink {
public:
  void beginAttempt(unsigned ShardCount) override {
    Shards = ShardCount;
    PerShard.assign(ShardCount, {});
  }

  void onShardRecord(unsigned Shard, const profiler::ObjectRecord &R) override {
    PerShard[Shard].push_back(R);
  }

  /// Shard count of the last attempt; 1 when the sequential path ran.
  unsigned Shards = 0;
  std::vector<std::vector<profiler::ObjectRecord>> PerShard;
};

/// Every field of \p R, in the canonical sort order.
inline auto recordKey(const profiler::ObjectRecord &R) {
  return std::make_tuple(R.CollectTime, R.Id, R.AllocTime, R.FirstUseTime,
                         R.LastUseTime, R.Bytes, R.Class.Index,
                         static_cast<int>(R.AKind), R.IsArray, R.AllocSite,
                         R.LastUseSite, R.UseCount, R.UsedOutsideInit,
                         R.SurvivedToEnd);
}

inline void sortRecords(std::vector<profiler::ObjectRecord> &Records) {
  std::sort(Records.begin(), Records.end(),
            [](const profiler::ObjectRecord &A,
               const profiler::ObjectRecord &B) {
              return recordKey(A) < recordKey(B);
            });
}

/// Replays \p Path through replayProfileParallelFold with \p Jobs
/// workers and materializes the result for comparison: \p Out is the
/// shell plus every record the sink received, remapped to Out.Sites ids
/// and sorted canonically. \p Shards receives the number of shards that
/// ran (1: the sequential path).
inline bool replaySharded(const std::string &Path, const ir::Program &P,
                          profiler::ProfilerConfig Config, unsigned Jobs,
                          profiler::ProfileLog &Out, std::string *Err = nullptr,
                          unsigned *Shards = nullptr) {
  RecordCollector C;
  std::vector<profiler::SiteId> Map;
  if (!profiler::replayProfileParallelFold(Path, P, std::move(Config), Jobs, C,
                                           Out, Map, Err))
    return false;
  auto Remap = [&](profiler::SiteId S) {
    return S < Map.size() ? Map[S] : profiler::InvalidSite;
  };
  auto Add = [&](profiler::ObjectRecord R) {
    R.AllocSite = Remap(R.AllocSite);
    R.LastUseSite = Remap(R.LastUseSite);
    Out.Records.push_back(R);
  };
  for (const auto &Shard : C.PerShard)
    for (const profiler::ObjectRecord &R : Shard)
      Add(R);
  sortRecords(Out.Records);
  if (Shards)
    *Shards = C.Shards;
  return true;
}

/// The sequential oracle's log \p Seq against a sharded one \p Par (as
/// replaySharded builds it), field by field: every record, both sides
/// sorted canonically, and the shell -- sites, GC samples, end time,
/// sampling params, completeness and the compressed flag.
inline void expectSameProfile(const profiler::ProfileLog &Seq,
                              const profiler::ProfileLog &Par) {
  std::vector<profiler::ObjectRecord> Want = Seq.Records;
  sortRecords(Want);
  EXPECT_EQ(Want.size(), Par.Records.size());
  for (std::size_t I = 0; I != std::min(Want.size(), Par.Records.size()); ++I)
    if (recordKey(Want[I]) != recordKey(Par.Records[I])) {
      ADD_FAILURE() << "record " << I << " (id " << Want[I].Id << " vs "
                    << Par.Records[I].Id << ") differs";
      break;
    }

  ASSERT_EQ(Seq.Sites.size(), Par.Sites.size());
  for (profiler::SiteId S = 0; S != Seq.Sites.size(); ++S)
    EXPECT_TRUE(Seq.Sites.chain(S) == Par.Sites.chain(S)) << "site " << S;
  ASSERT_EQ(Seq.GCSamples.size(), Par.GCSamples.size());
  for (std::size_t I = 0; I != Seq.GCSamples.size(); ++I) {
    EXPECT_EQ(Seq.GCSamples[I].Time, Par.GCSamples[I].Time) << I;
    EXPECT_EQ(Seq.GCSamples[I].ReachableBytes,
              Par.GCSamples[I].ReachableBytes)
        << I;
    EXPECT_EQ(Seq.GCSamples[I].ReachableObjects,
              Par.GCSamples[I].ReachableObjects)
        << I;
  }
  EXPECT_EQ(Seq.EndTime, Par.EndTime);
  EXPECT_EQ(Seq.SampleRate, Par.SampleRate);
  EXPECT_EQ(Seq.SampleSeed, Par.SampleSeed);
  EXPECT_EQ(Seq.Complete, Par.Complete);
  EXPECT_EQ(Seq.Compressed, Par.Compressed);
}

} // namespace jdrag::testutil

#endif // JDRAG_TESTS_SHARDEDREPLAY_H
