//===- analysis/RecordFold.h - Streaming record fold engine -----*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase 2 as a single streaming pass. A RecordFold consumes finished
/// ObjectRecords one at a time and keeps only O(live sites) of state, so
/// every analysis -- the drag report (site/coarse/class partitions plus
/// the Patterns feature set), the Roejemo-Runciman lifetime
/// decomposition, and the Figure 2 heap curves -- can run directly off
/// the replay decoder (or the live VM) without materializing
/// `ProfileLog::Records` (~80 B per object ever allocated).
///
/// Folds are *mergeable*: `replayProfileParallel`'s chunk shards build
/// shard-local folds and merge them into one. Merged results are
/// bit-identical to a sequential fold, which in turn is bit-identical to
/// the materialized pass, because every floating-point sum is kept in an
/// ExactSum fixed-point superaccumulator (exactly associative and
/// commutative) and converted to double exactly once, at finalization.
/// Everything else a fold keeps is integer arithmetic or min/max, which
/// are order-free already. See docs/analysis.md.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_ANALYSIS_RECORDFOLD_H
#define JDRAG_ANALYSIS_RECORDFOLD_H

#include "analysis/DragReport.h"
#include "analysis/HeapCurves.h"
#include "analysis/LagDragVoid.h"
#include "support/ExactSum.h"
#include "support/OpenIndex.h"

#include <cstdio>
#include <limits>
#include <unordered_map>
#include <vector>

namespace jdrag::analysis {

/// One streaming consumer of finished object records.
///
/// Contract: any number of fold() calls, then (optionally) merge() calls
/// folding in other instances of the *same concrete type*, then at most
/// one remapSites(), then finalization (each concrete fold exposes its
/// own typed finish()). fold() after remapSites() is undefined.
class RecordFold {
public:
  virtual ~RecordFold();

  /// Folds one finished record into the running state.
  virtual void fold(const profiler::ObjectRecord &R) = 0;

  /// Folds another instance of the same concrete type into this one.
  /// For every fold shipped here the merged state is bit-identical to
  /// having fold()ed the other instance's records into *this directly,
  /// in any order.
  virtual void merge(const RecordFold &O) = 0;

  /// Rewrites every stored site id through \p Map (index = id the
  /// records carried, value = final log-local id). Ids outside the map
  /// -- including InvalidSite -- are left as InvalidSite. The sharded
  /// replay path folds in stream-id space and remaps once, here, after
  /// the last merge.
  virtual void remapSites(const std::vector<profiler::SiteId> &Map);

  /// Approximate resident bytes of fold state; the O(sites) claim made
  /// measurable (BENCH_9).
  virtual std::size_t stateBytes() const = 0;
};

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
class SiteGroupFold : public RecordFold {
public:
  /// \p SampleRate is ProfileLog::SampleRate (0 = exact log).
  /// \p SiteCountHint presizes the index and group storage (pass the
  /// site-table size; 0 is fine).
  explicit SiteGroupFold(std::uint64_t SampleRate,
                         std::uint32_t SiteCountHint = 0);

  void fold(const profiler::ObjectRecord &R) override;
  void merge(const RecordFold &O) override;
  void remapSites(const std::vector<profiler::SiteId> &Map) override;
  std::size_t stateBytes() const override;

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
class LifetimeFold : public RecordFold {
public:
  void fold(const profiler::ObjectRecord &R) override;
  void merge(const RecordFold &O) override;
  std::size_t stateBytes() const override { return sizeof(*this); }

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
/// streaming driver peeks it from the chunk-index footer. Bit-identical
/// to the materialized event sweep: an event at time t lands in the
/// first grid cell >= t, exactly the cells whose `Time <= T` scan would
/// have consumed it.
class HeapCurveFold : public RecordFold {
public:
  HeapCurveFold(ByteTime End, std::uint32_t NumSamples);

  void fold(const profiler::ObjectRecord &R) override;
  void merge(const RecordFold &O) override;
  std::size_t stateBytes() const override;

  HeapCurve finish() const;

private:
  void addInterval(std::vector<std::int64_t> &Delta, ByteTime From,
                   ByteTime To, std::int64_t Bytes);

  std::vector<ByteTime> Grid;
  std::vector<std::int64_t> ReachDelta, InUseDelta;
};

/// Streams the `jdrag export` per-object CSV straight to a file, one row
/// per fold, byte-identical to recordsCsv().writeFile() over the same
/// records in the same order. Order-sensitive by nature, so the
/// streaming driver never shards it; merge() is a hard error.
class CsvExportFold : public RecordFold {
public:
  /// Opens \p Path and writes the header row. \p Sites may still be
  /// growing while folding (the live site table of an in-progress
  /// replay); rows only describe sites already defined, which the
  /// stream's define-before-use ordering guarantees.
  CsvExportFold(const ir::Program &P, const profiler::SiteTable &Sites,
                const std::string &Path);
  ~CsvExportFold() override;

  void fold(const profiler::ObjectRecord &R) override;
  void merge(const RecordFold &O) override;
  std::size_t stateBytes() const override { return sizeof(*this); }

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

/// A fan-out: one record stream feeding every registered fold. This is
/// what "one shared pass feeds every analysis" means operationally --
/// report, lifetimes, curves and export all subscribe to the same
/// decode.
class FoldPipeline {
public:
  void attach(RecordFold &F) { Folds.push_back(&F); }

  void fold(const profiler::ObjectRecord &R) {
    ++Records;
    for (RecordFold *F : Folds)
      F->fold(R);
  }

  void remapSites(const std::vector<profiler::SiteId> &Map) {
    for (RecordFold *F : Folds)
      F->remapSites(Map);
  }

  std::uint64_t recordCount() const { return Records; }

  std::size_t stateBytes() const {
    std::size_t N = 0;
    for (const RecordFold *F : Folds)
      N += F->stateBytes();
    return N;
  }

private:
  std::vector<RecordFold *> Folds;
  std::uint64_t Records = 0;
};

} // namespace jdrag::analysis

#endif // JDRAG_ANALYSIS_RECORDFOLD_H
