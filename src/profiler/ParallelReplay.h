//===- profiler/ParallelReplay.h - Sharded drag replay ----------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Map-reduce phase 2: replays a `.jdev` recording through N decode
/// threads, each of which hands every record it finishes to a fold
/// (ShardFoldSink), and merges the shard boundaries. Nothing here stores
/// records: the per-shard folds merge into the result that one
/// sequential fold over replayProfile()'s records gives.
///
/// The map side partitions the stream's chunk index (parsed from the
/// footer, or rebuilt with one sequential pass for a footerless file)
/// into contiguous chunk ranges balanced by payload bytes. Each worker
/// verifies its chunks (magic, sequence, CRC-32C) and decodes each one
/// on its own: v7 chunks are self-contained (per-chunk time and id
/// baselines, record-aligned). Legacy (v2-v6) recordings take the
/// sequential path (profiler/LegacyStream.h).
///
/// Each shard runs DragProfiler's trailer rules (TrailerTable) with its
/// interval clock starting at 0. An object the shard allocates is
/// finished there, exactly as DragProfiler finishes it: a snapped use is
/// max(entry boundary, AllocTime), and that is AllocTime either way as
/// long as the true entry boundary -- the previous shard's last
/// DeepGCEnd -- is no later than AllocTime. For an object allocated in
/// an earlier shard (a *foreign* object) the shard keeps a small
/// partial instead: use count, last-use site, its first non-init and
/// max use times (known, or "the entry boundary"), and its end.
///
/// The reduce side is only the boundary merge: in shard order it
/// carries each shard's still-live trailers forward, applies the next
/// shard's partials to them with the entry boundary resolved, and
/// finishes the ended ones through the same TrailerTable rule. If a
/// shard's smallest AllocTime before its first DeepGCEnd is below its
/// entry boundary (a clock that ran backwards across shards), or a shard
/// allocates an id that is not above every id allocated before it, the
/// merge refuses and the call replays sequentially. The VM writes
/// neither.
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

/// Per-shard fold hooks: the sharded replay delivers every finished
/// record here, so the caller folds shard-local partial aggregates and
/// merges them (analysis/RecordFold.h) without an O(objects) record
/// vector.
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

/// Replays the `.jdev` recording at \p Path through \p Jobs decode
/// threads, delivering every finished record to \p Sink; \p Shell
/// receives the record-free log shell (sites, GC samples, end time,
/// sampling params). \p SiteMapOut maps the stream site ids carried by
/// the sink's records to Shell.Sites ids; pass each fold set to
/// FoldSet::remapSites(SiteMapOut) after the call. The records, once
/// remapped, are replayProfile()'s records in some order, and the shell
/// equals its log minus Records. Jobs of 0 means defaultReplayJobs();
/// Jobs <= 1, single-chunk streams, legacy (v2-v6) recordings, a merge
/// refusal and any pre-shard validation failure run the sequential path
/// as one logical shard, so error behaviour on malformed files matches
/// replayProfile() exactly.
bool replayProfileParallelFold(const std::string &Path, const ir::Program &P,
                               ProfilerConfig Config, unsigned Jobs,
                               ShardFoldSink &Sink, ProfileLog &Shell,
                               std::vector<SiteId> &SiteMapOut,
                               std::string *Err = nullptr);

} // namespace jdrag::profiler

#endif // JDRAG_PROFILER_PARALLELREPLAY_H
