//===- analysis/DragReport.h - Phase-2 drag aggregation ---------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline analyzer's core: partitions the dragged objects of a
/// ProfileLog by nested allocation site (and coarsely by plain allocation
/// site), sums each group's drag space-time product, and sorts groups by
/// accumulated drag -- "allocation sites having a large drag suggest a
/// potential for significant space savings. Therefore, our tool sorts
/// allocation sites according to their drag" (paper section 1.1).
///
/// Each group also carries the sub-partition by last-use site (used to
/// find the program point where the reference dies, section 2.2) and the
/// never-used subset ("a sure bet for code rewriting").
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_ANALYSIS_DRAGREPORT_H
#define JDRAG_ANALYSIS_DRAGREPORT_H

#include "profiler/ProfileLog.h"
#include "profiler/Sampling.h"
#include "support/Statistics.h"

#include <algorithm>
#include <array>
#include <bit>
#include <unordered_map>
#include <utility>

namespace jdrag::analysis {

using profiler::InvalidSite;
using profiler::ObjectRecord;
using profiler::ProfileLog;
using profiler::SiteId;

struct DragReportData; // RecordFold.h: the fold engine's finished output

/// Aggregate over all objects allocated at one nested allocation site.
///
/// Over an exact log every field is an exact sum. Over a sampled log
/// (ProfileLog::SampleRate != 0) the integer fields stay *raw* counts
/// of the sampled records while the SpaceTime sums are scaled
/// Horvitz-Thompson estimates of the exact-profile values: each sampled
/// record contributes its value times 1/p(bytes). EstObjects/EstBytes
/// are the scaled companions of ObjectCount/TotalBytes, and
/// DragVariance accumulates the HT variance of TotalDrag so reports can
/// show a confidence interval next to the estimate.
struct SiteGroup {
  SiteId Site = InvalidSite; ///< nested allocation site
  std::uint64_t ObjectCount = 0;  ///< raw records (the sample count)
  std::uint64_t NeverUsedCount = 0;
  std::uint64_t TotalBytes = 0;   ///< raw bytes of sampled records
  double EstObjects = 0;          ///< HT estimate of true object count
  double EstBytes = 0;            ///< HT estimate of true byte total
  SpaceTime TotalDrag = 0;     ///< byte^2 (HT-scaled when sampled)
  SpaceTime NeverUsedDrag = 0; ///< drag from never-used objects
  /// HT variance of TotalDrag (0 for exact logs).
  double DragVariance = 0;
  RunningStat DragPerObject;     ///< distribution of per-object drag
  RunningStat DragTimePerObject; ///< distribution of per-object drag time
  RunningStat LifeTimePerObject;
  std::uint64_t LargeDragCount = 0; ///< drag time >= 1/3 of lifetime
  /// Drag partitioned by nested last-use site (InvalidSite buckets the
  /// never-used drag), sorted site-ascending. A flat vector, not a map:
  /// it is write-once at finalization, read-only afterwards, and the
  /// sorted order makes dominantLastUseSite() deterministic across the
  /// streaming, materialized and shard-merged aggregation paths.
  std::vector<std::pair<SiteId, SpaceTime>> DragByLastUse;
  /// Log-scale histogram of per-object drag times ("the tool also
  /// partitions the dragged objects at that anchor allocation site
  /// according to their drag time", section 3.4). Bucket i counts drag
  /// times in [4^i KB, 4^(i+1) KB), bucket 0 additionally below 4 KB.
  static constexpr std::size_t NumHistoBuckets = 8;
  std::array<std::uint64_t, NumHistoBuckets> DragTimeHisto = {};

  /// Bucket index for a drag time. Bucket i >= 1 starts at 2^(2i+10),
  /// so it is half the bit width past 11 bits; the `| 2047` floor puts
  /// everything below 4 KB in bucket 0.
  static std::size_t histoBucket(ByteTime DragTime) {
    std::size_t Bucket =
        static_cast<std::size_t>(53 - std::countl_zero(DragTime | 2047)) / 2;
    return std::min(Bucket, NumHistoBuckets - 1);
  }
  /// Human-readable bucket label, e.g. "16K-64K".
  static std::string histoBucketLabel(std::size_t Bucket);

  double neverUsedDragFraction() const {
    return TotalDrag > 0 ? NeverUsedDrag / TotalDrag : 0.0;
  }
  double neverUsedObjectFraction() const {
    return ObjectCount ? static_cast<double>(NeverUsedCount) /
                             static_cast<double>(ObjectCount)
                       : 0.0;
  }
  double largeDragObjectFraction() const {
    return ObjectCount ? static_cast<double>(LargeDragCount) /
                             static_cast<double>(ObjectCount)
                       : 0.0;
  }

  /// Half-width of the 95% confidence interval on TotalDrag (byte^2);
  /// 0 for exact logs.
  double dragCI95() const { return profiler::ci95(DragVariance); }

  /// The last-use site accounting for the most drag (InvalidSite if none
  /// of the group's objects was ever used).
  SiteId dominantLastUseSite() const;
};

/// Coarse partition by plain allocation site (innermost frame only); one
/// nested site always maps to exactly one coarse site.
struct CoarseGroup {
  ir::MethodId Method;
  std::uint32_t Pc = 0;
  std::uint32_t Line = 0;
  SpaceTime TotalDrag = 0;
  std::uint64_t ObjectCount = 0;
  std::uint64_t NeverUsedCount = 0;
  SpaceTime NeverUsedDrag = 0;
  std::vector<SiteId> NestedSites;
};

/// Per-class aggregation (the "heap configuration" view of the memory
/// profilers the paper's related work cites): drag and volume by object
/// class, with arrays bucketed by element kind.
struct ClassGroup {
  ir::ClassId Class;          ///< invalid for array buckets
  ir::ArrayKind AKind = ir::ArrayKind::Int;
  bool IsArray = false;
  SpaceTime TotalDrag = 0;
  std::uint64_t ObjectCount = 0;
  std::uint64_t TotalBytes = 0;
  std::uint64_t NeverUsedCount = 0;

  /// "Point" or "char[]".
  std::string name(const ir::Program &P) const;
};

/// The phase-2 report over one profile log.
class DragReport {
public:
  /// Materialized path: folds Log.Records through the same SiteGroupFold
  /// the streaming engine uses -- it is the bit-identity oracle for the
  /// streaming path, not a separate implementation.
  DragReport(const ir::Program &P, const ProfileLog &Log);

  /// Streaming path: adopts a finished fold. \p Log is the record-free
  /// shell (sites, sampling params, end time) the streaming driver
  /// produced alongside the fold.
  DragReport(const ir::Program &P, const ProfileLog &Log,
             DragReportData Data);

  /// Nested-site groups, sorted by descending total drag.
  const std::vector<SiteGroup> &groups() const { return Groups; }

  /// Coarse (plain allocation site) groups, sorted by descending drag.
  const std::vector<CoarseGroup> &coarseGroups() const {
    return CoarseGroups;
  }

  /// Per-class groups, sorted by descending drag.
  const std::vector<ClassGroup> &classGroups() const { return ClassGroups; }

  /// Group lookup by nested site id (nullptr if the site allocated
  /// nothing in this log).
  const SiteGroup *group(SiteId Site) const;

  SpaceTime totalDrag() const { return TotalDragSum; }
  SpaceTime reachableIntegral() const { return ReachableSum; }
  SpaceTime inUseIntegral() const { return InUseSum; }
  ByteTime endTime() const { return End; }

  const ir::Program &program() const { return P; }
  const ProfileLog &log() const { return TheLog; }

private:
  void adopt(DragReportData Data);

  const ir::Program &P;
  const ProfileLog &TheLog;
  std::vector<SiteGroup> Groups;
  std::vector<CoarseGroup> CoarseGroups;
  std::vector<ClassGroup> ClassGroups;
  std::unordered_map<SiteId, std::size_t> GroupIndex;
  SpaceTime TotalDragSum = 0;
  SpaceTime ReachableSum = 0;
  SpaceTime InUseSum = 0;
  ByteTime End = 0;
};

} // namespace jdrag::analysis

#endif // JDRAG_ANALYSIS_DRAGREPORT_H
