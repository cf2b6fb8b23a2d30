//===- analysis/RecordFold.h - Streaming record fold engine -----*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase 2 as a single streaming pass. A fold consumes finished
/// ObjectRecords one at a time and keeps only O(live sites) of state, so
/// every analysis -- the drag report (site/coarse/class partitions plus
/// the Patterns feature set), the Roejemo-Runciman lifetime
/// decomposition, and the Figure 2 heap curves -- can run directly off
/// the replay decoder (or the live VM) without materializing
/// `ProfileLog::Records` (~80 B per object ever allocated).
///
/// The folds are plain classes with no common base. Each has
/// `fold(const ObjectRecord &)`; the mergeable ones also have a typed
/// `merge(const Same &)`, so merging two different folds does not
/// compile. FoldSet bundles the folds one pass requested and is what
/// the replay feeds: one indirect RecordSink::onRecord call per record
/// reaches every fold, and each shard of a sharded pass keeps a set of
/// its own.
///
/// Contract: any number of fold() calls, then any merge() calls, then at
/// most one remapSites(), then finalization (each fold's own typed
/// finish()). fold() or merge() after remapSites() is undefined.
///
/// Merged results are bit-identical to a sequential fold, which in turn
/// is bit-identical to the materialized pass, because every
/// floating-point sum is kept in an ExactSum fixed-point
/// superaccumulator (exactly associative and commutative) and converted
/// to double exactly once, at finalization. SiteGroupFold feeds most of
/// its sums as integer products (ExactSum::addProduct), which land on
/// the accumulator's integer lane with the same exact value the double
/// product has. Everything else a fold keeps is integer arithmetic or
/// min/max, which are order-free already. See docs/analysis.md.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_ANALYSIS_RECORDFOLD_H
#define JDRAG_ANALYSIS_RECORDFOLD_H

#include "analysis/DragReport.h"
#include "analysis/HeapCurves.h"
#include "analysis/LagDragVoid.h"
#include "profiler/DragProfiler.h"
#include "support/ExactSum.h"
#include "support/OpenIndex.h"

#include <cassert>
#include <cstdio>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

namespace jdrag::analysis {

/// Everything the DragReport presents, produced by SiteGroupFold::finish
/// and adopted wholesale by the DragReport(P, Log, Data) constructor.
struct DragReportData {
  std::vector<SiteGroup> Groups; ///< sorted by (drag desc, site asc)
  std::vector<CoarseGroup> CoarseGroups;
  std::vector<ClassGroup> ClassGroups;
  std::unordered_map<SiteId, std::size_t> GroupIndex;
  SpaceTime TotalDragSum = 0;
  SpaceTime ReachableSum = 0;
  SpaceTime InUseSum = 0;
};

/// The drag report's aggregation pass as a mergeable fold: site groups
/// (with the full Patterns feature set: never-used splits, large-drag
/// counts, per-object moment sums, the drag-time histogram and the
/// last-use partition), the per-class partition, and the program-wide
/// space-time totals. State is O(distinct sites + classes); per-record
/// work is one open-addressed probe per partition, no hash maps.
class SiteGroupFold {
public:
  /// \p SampleRate is ProfileLog::SampleRate (0 = exact log).
  /// \p SiteCountHint presizes the index and group storage (pass the
  /// site-table size; 0 is fine).
  explicit SiteGroupFold(std::uint64_t SampleRate,
                         std::uint32_t SiteCountHint = 0);

  /// Folds one finished record into the running state.
  void fold(const profiler::ObjectRecord &R);

  /// Folds another instance in. The merged state is bit-identical to
  /// having fold()ed the other instance's records into *this directly,
  /// in any order.
  void merge(const SiteGroupFold &O);

  /// Rewrites every stored site id through \p Map (index = id the
  /// records carried, value = final log-local id). Ids outside the map
  /// -- including InvalidSite -- become InvalidSite. The sharded replay
  /// path folds in stream-id space and remaps once, here, after the
  /// last merge.
  void remapSites(const std::vector<profiler::SiteId> &Map);

  /// Approximate resident bytes of fold state; the O(sites) claim made
  /// measurable (BENCH_9).
  std::size_t stateBytes() const;

  /// Finalizes: converts every accumulator with one rounding step,
  /// attaches the per-group last-use partitions (site-ascending), sorts
  /// all three partitions by their deterministic total orders, and
  /// builds the coarse partition from \p Sites.
  DragReportData finish(const ir::Program &P,
                        const profiler::SiteTable &Sites) const;

  std::uint64_t recordCount() const { return Records; }

private:
  /// Per-site accumulator: exact sums (ExactSum) for everything that
  /// finalizes to a double, raw integers for the rest.
  struct GroupAccum {
    SiteId Site = profiler::InvalidSite;
    std::uint64_t ObjectCount = 0;
    std::uint64_t NeverUsedCount = 0;
    std::uint64_t TotalBytes = 0;
    std::uint64_t LargeDragCount = 0;
    ExactSum EstObjects, EstBytes, TotalDrag, DragVariance, NeverUsedDrag;
    // Moment sums for the three per-object RunningStat distributions.
    ExactSum DragSum, DragSq, DragTimeSum, DragTimeSq, LifeSum, LifeSq;
    double DragMin = std::numeric_limits<double>::infinity();
    double DragMax = -std::numeric_limits<double>::infinity();
    double DragTimeMin = std::numeric_limits<double>::infinity();
    double DragTimeMax = -std::numeric_limits<double>::infinity();
    double LifeMin = std::numeric_limits<double>::infinity();
    double LifeMax = -std::numeric_limits<double>::infinity();
    std::array<std::uint64_t, SiteGroup::NumHistoBuckets> Histo = {};
  };

  /// One (group, last-use site) drag cell; Key = group index << 32 |
  /// last-use site (InvalidSite buckets the never-used drag).
  struct LastUseAccum {
    std::uint64_t Key = 0;
    ExactSum Drag;
  };

  /// Per-class accumulator; Key follows the materialized partition:
  /// class index, or (1 << 40) + array kind for array buckets.
  struct ClassAccum {
    std::uint64_t Key = 0;
    ir::ClassId Class;
    ir::ArrayKind AKind = ir::ArrayKind::Int;
    bool IsArray = false;
    std::uint64_t ObjectCount = 0;
    std::uint64_t TotalBytes = 0;
    std::uint64_t NeverUsedCount = 0;
    ExactSum TotalDrag;
  };

  std::uint32_t groupFor(SiteId Site);
  std::uint32_t lastUseFor(std::uint64_t Key);
  std::uint32_t classFor(std::uint64_t Key);

  std::uint64_t Rate;
  std::uint64_t Records = 0;
  std::vector<GroupAccum> Groups;
  std::vector<LastUseAccum> LastUse;
  std::vector<ClassAccum> Classes;
  OpenIndex<std::uint32_t> SiteIndex;
  OpenIndex<std::uint64_t> LastUseIndex;
  OpenIndex<std::uint64_t> ClassIndex;
  ExactSum TotalDragSum, ReachableSum, InUseSum;
};

/// The Roejemo-Runciman decomposition as a fold. All five space-time
/// integrals (the four phases plus the reachable total) are exact
/// 128-bit integer sums of bytes x time products, so the identity
///   lag + use + drag4 + void == reachable
/// holds *exactly*, in integer arithmetic, for sequential and merged
/// folds alike; finish() rounds each total to double once.
class LifetimeFold {
public:
  void fold(const profiler::ObjectRecord &R);
  void merge(const LifetimeFold &O);
  std::size_t stateBytes() const { return sizeof(*this); }

  LifetimeDecomposition finish() const;

  /// The exact integer identity check (the satellite property test).
  bool identityExact() const {
    return Lag + Use + Drag + Void == Reachable;
  }

  unsigned __int128 lagInt() const { return Lag; }
  unsigned __int128 useInt() const { return Use; }
  unsigned __int128 dragInt() const { return Drag; }
  unsigned __int128 voidInt() const { return Void; }
  unsigned __int128 reachableInt() const { return Reachable; }

private:
  unsigned __int128 Lag = 0, Use = 0, Drag = 0, Void = 0, Reachable = 0;
};

/// The Figure 2 curves as a fold: signed byte deltas accumulated
/// directly into grid buckets (difference arrays), prefix-summed at
/// finish(). Needs the grid -- i.e. the log's end time -- up front; the
/// streaming driver peeks it from the chunk-index footer. An event at
/// time t lands in the first grid cell >= t, so each sample is the
/// level after every event at or before its time. The only curve
/// implementation: buildHeapCurve and figure2Csv fold a log's records
/// through it too.
class HeapCurveFold {
public:
  HeapCurveFold(ByteTime End, std::uint32_t NumSamples);

  void fold(const profiler::ObjectRecord &R);
  /// Folds in a curve over the same grid (a different grid is a bug).
  void merge(const HeapCurveFold &O);
  std::size_t stateBytes() const;

  HeapCurve finish() const;

private:
  void addInterval(std::vector<std::int64_t> &Delta, ByteTime From,
                   ByteTime To, std::int64_t Bytes);

  std::vector<ByteTime> Grid;
  std::vector<std::int64_t> ReachDelta, InUseDelta;
};

/// Streams the `jdrag export` per-object CSV straight to a file, one row
/// per fold, byte-identical to recordsCsv().writeFile() over the same
/// records in the same order. Order-sensitive by nature, so it has no
/// merge() and the streaming driver never shards it.
class CsvExportFold {
public:
  /// Opens \p Path and writes the header row. \p Sites may still be
  /// growing while folding (the live site table of an in-progress
  /// replay); rows only describe sites already defined, which the
  /// stream's define-before-use ordering guarantees.
  CsvExportFold(const ir::Program &P, const profiler::SiteTable &Sites,
                const std::string &Path);
  ~CsvExportFold();
  CsvExportFold(const CsvExportFold &) = delete;
  CsvExportFold &operator=(const CsvExportFold &) = delete;

  void fold(const profiler::ObjectRecord &R);
  std::size_t stateBytes() const { return sizeof(*this); }

  /// Flushes and closes; false if any write (or the open) failed.
  bool finish();

  std::uint64_t rowCount() const { return Rows; }

private:
  const ir::Program &P;
  const profiler::SiteTable &Sites;
  std::FILE *Out = nullptr;
  bool Ok = false;
  std::uint64_t Rows = 0;
};

/// The folds one pass runs: each requested fold is engaged, the rest
/// stay empty. The sequential replay feeds the set as its RecordSink;
/// the sharded pass keeps one set per shard and merges them.
class FoldSet final : public profiler::RecordSink {
public:
  std::optional<SiteGroupFold> Report;
  std::optional<LifetimeFold> Lifetimes;
  std::optional<HeapCurveFold> Curve;
  /// Sequential passes only: merge() never touches it.
  std::optional<CsvExportFold> Export;

  void onRecord(const profiler::ObjectRecord &R) override { fold(R); }

  void fold(const profiler::ObjectRecord &R) {
    ++Records;
    if (Report)
      Report->fold(R);
    if (Lifetimes)
      Lifetimes->fold(R);
    if (Curve)
      Curve->fold(R);
    if (Export)
      Export->fold(R);
  }

  /// Folds in a set that engaged the same folds and no export.
  void merge(const FoldSet &O) {
    assert(!Export && !O.Export && "an export cannot be merged");
    Records += O.Records;
    if (Report)
      Report->merge(*O.Report);
    if (Lifetimes)
      Lifetimes->merge(*O.Lifetimes);
    if (Curve)
      Curve->merge(*O.Curve);
  }

  /// See SiteGroupFold::remapSites; the other folds keep no site ids.
  void remapSites(const std::vector<profiler::SiteId> &Map) {
    if (Report)
      Report->remapSites(Map);
  }

  std::uint64_t recordCount() const { return Records; }

  std::size_t stateBytes() const {
    std::size_t N = 0;
    if (Report)
      N += Report->stateBytes();
    if (Lifetimes)
      N += Lifetimes->stateBytes();
    if (Curve)
      N += Curve->stateBytes();
    if (Export)
      N += Export->stateBytes();
    return N;
  }

private:
  std::uint64_t Records = 0;
};

} // namespace jdrag::analysis

#endif // JDRAG_ANALYSIS_RECORDFOLD_H
