//===- profiler/ParallelReplay.h - Sharded drag replay ----------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Map-reduce phase 2: replays a `.jdev` recording through N decode
/// threads, each of which hands every record it finishes to a fold
/// (ShardFoldSink). Nothing here stores records: the per-shard folds
/// merge into the result that one sequential fold over replayProfile()'s
/// records gives.
///
/// The map side partitions the stream's chunk index (parsed from the
/// footer, or rebuilt with one sequential pass for a footerless file)
/// into contiguous chunk ranges balanced by payload bytes. Each worker
/// verifies its chunks (magic, sequence, CRC-32C) and decodes each one
/// on its own: v8 chunks are self-contained (per-chunk time, id and
/// boundary baselines, record-aligned). Legacy (v2-v7) recordings take
/// the sequential path (profiler/LegacyStream.h).
///
/// Every v8 record is self-contained too: an object's Collect/Survivor
/// carries its whole trailer, deep-GC boundaries included. So each shard
/// finishes every object whose record it decodes through DragProfiler's
/// record rule (RecordRule), and the reduce side only concatenates the
/// shards' sites, GC samples and end time in shard order.
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

  /// A record shard \p Shard decoded, emitted during decode. Called
  /// *concurrently* from the shard worker threads, but any two calls
  /// with the same \p Shard value are ordered -- keep per-shard state
  /// and merge after the replay.
  virtual void onShardRecord(unsigned Shard, const ObjectRecord &R) = 0;
};

/// Replays the `.jdev` recording at \p Path through \p Jobs decode
/// threads, delivering every finished record to \p Sink; \p Shell
/// receives the record-free log shell (sites, GC samples, end time,
/// sampling params). \p SiteMapOut maps the stream site ids carried by
/// the sink's records to Shell.Sites ids; pass each fold set to
/// FoldSet::remapSites(SiteMapOut) after the call. The records, once
/// remapped, are replayProfile()'s records in some order, and the shell
/// equals its log minus Records. Jobs of 0 means defaultReplayJobs();
/// Jobs <= 1, single-chunk streams, legacy (v2-v7) recordings and any
/// pre-shard validation failure run the sequential path as one logical
/// shard, so error behaviour on malformed files matches replayProfile()
/// exactly.
bool replayProfileParallelFold(const std::string &Path, const ir::Program &P,
                               ProfilerConfig Config, unsigned Jobs,
                               ShardFoldSink &Sink, ProfileLog &Shell,
                               std::vector<SiteId> &SiteMapOut,
                               std::string *Err = nullptr);

} // namespace jdrag::profiler

#endif // JDRAG_PROFILER_PARALLELREPLAY_H
