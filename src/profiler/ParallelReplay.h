//===- profiler/ParallelReplay.h - Sharded drag replay ----------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Map-reduce phase 2: replays a `.jdev` recording through N decode
/// threads and merges their partial trailer tables into a ProfileLog
/// that is bit-identical to the sequential replayProfile() result.
///
/// The map side partitions the stream's chunk index (parsed from the
/// footer, or rebuilt with one sequential pass for a footerless file)
/// into contiguous chunk ranges balanced by payload bytes. Each worker
/// verifies its chunks (magic, sequence, CRC-32C) and decodes each one
/// on its own: v4+ chunks are self-contained (per-chunk time baseline,
/// record-aligned). v2/v3 records straddle chunks, so those recordings
/// take the sequential path (profiler/LegacyStream.h).
///
/// The reduce side folds the per-shard partials in shard order:
/// allocation facts are first-wins, last-use times fold as a max,
/// per-shard uses that happened before the shard's first deep-GC
/// boundary are kept *symbolic* and resolved against the previous
/// shard's exit boundary at merge time (so SnapUseTimes semantics
/// survive sharding exactly), and object records are emitted in the
/// stream order of their Collect/Survivor events.
///
/// Trust model: a footer is a producer claim. Workers re-verify every
/// structural fact they rely on (header fields, CRC, record alignment,
/// per-chunk record counts); a lying footer triggers one index rebuild
/// and re-shard, and any other failure falls back to the sequential
/// path, so the parallel entry point never crashes on -- and never
/// disagrees with sequential replay about -- a damaged file.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_PROFILER_PARALLELREPLAY_H
#define JDRAG_PROFILER_PARALLELREPLAY_H

#include "profiler/DragProfiler.h"

namespace jdrag::profiler {

/// Worker count for "use all cores": hardware_concurrency, at least 1.
unsigned defaultReplayJobs();

/// Replays the `.jdev` recording at \p Path through \p Jobs decode
/// threads and moves the merged log into \p Out. The result (records,
/// GC samples, site table, end time -- every serialized byte) is
/// identical to replayProfile()'s for any readable recording. Jobs of
/// 0 means defaultReplayJobs(); Jobs <= 1, single-chunk streams, v2/v3
/// recordings and any pre-shard validation failure run the sequential
/// path, so error behaviour on malformed files matches replayProfile()
/// exactly.
bool replayProfileParallel(const std::string &Path, const ir::Program &P,
                           ProfilerConfig Config, unsigned Jobs,
                           ProfileLog &Out, std::string *Err = nullptr);

/// Per-shard fold hooks for the streaming analysis engine: the sharded
/// replay delivers finished records here instead of materializing them,
/// so the caller can fold shard-local partial aggregates and merge them
/// (analysis/RecordFold.h) without an O(objects) record vector.
///
/// Record site ids are *stream* ids; resolve them through the SiteMap
/// the driver returns (in the sequential fallback the map is the
/// identity, since records already carry log-local ids).
class ShardFoldSink {
public:
  virtual ~ShardFoldSink() = default;

  /// Called before each decode attempt (a footer-distrusting retry
  /// decodes the stream again) with the number of shards; must drop any
  /// state folded by a previous attempt.
  virtual void beginAttempt(unsigned ShardCount) = 0;

  /// A record whose whole lifetime fell inside shard \p Shard, emitted
  /// during decode. Called *concurrently* from the shard worker
  /// threads, but any two calls with the same \p Shard value are
  /// ordered -- keep per-shard state and merge after the replay.
  virtual void onShardRecord(unsigned Shard, const ObjectRecord &R) = 0;

  /// A shard-boundary-crossing record, emitted by the single-threaded
  /// merge step in end-event stream order.
  virtual void onMergedRecord(const ObjectRecord &R) = 0;
};

/// Streaming counterpart of replayProfileParallel: same sharding, trust
/// model and fallback ladder, but every finished record is delivered to
/// \p Sink and \p Shell receives the record-free log shell (sites, GC
/// samples, end time, sampling params). \p SiteMapOut maps the stream
/// site ids carried by the sink's records to Shell.Sites ids; pass each
/// fold to RecordFold::remapSites(SiteMapOut) after the call.
bool replayProfileParallelFold(const std::string &Path, const ir::Program &P,
                               ProfilerConfig Config, unsigned Jobs,
                               ShardFoldSink &Sink, ProfileLog &Shell,
                               std::vector<SiteId> &SiteMapOut,
                               std::string *Err = nullptr);

} // namespace jdrag::profiler

#endif // JDRAG_PROFILER_PARALLELREPLAY_H
