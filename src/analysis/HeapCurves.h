//===- analysis/HeapCurves.h - Figure 2 reachable/in-use curves -*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reconstructs the paper's Figure 2 curves from a profile log: the
/// reachable heap size (objects between allocation and collection) and
/// the in-use heap size (objects between allocation and last use) over
/// allocation time, sampled on a uniform grid by one fold
/// (HeapCurveFold, analysis/RecordFold.h) whether the records come from
/// a log or straight off the replay decoder. The discrete integrals
/// converge to the exact space-time integrals reported in Tables 2 and
/// 3.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_ANALYSIS_HEAPCURVES_H
#define JDRAG_ANALYSIS_HEAPCURVES_H

#include "ir/Program.h"
#include "profiler/ProfileLog.h"
#include "support/Csv.h"

#include <string>
#include <vector>

namespace jdrag::analysis {

/// Sampled reachable/in-use sizes over the byte clock.
struct HeapCurve {
  std::vector<ByteTime> Times;
  std::vector<std::uint64_t> ReachableBytes;
  std::vector<std::uint64_t> InUseBytes;

  std::size_t size() const { return Times.size(); }

  /// Trapezoid-free discrete integral of the reachable curve (byte^2):
  /// sum of value x step. Approximates ProfileLog::reachableIntegral().
  SpaceTime reachableIntegral() const;
  SpaceTime inUseIntegral() const;

  /// Peak reachable size (bytes).
  std::uint64_t peakReachable() const;
};

/// The uniform sample grid over [0, End]: NumSamples times, the i-th at
/// End * (i+1) / NumSamples. HeapCurveFold lands an event at time t in
/// the first cell at or after t.
std::vector<ByteTime> makeHeapCurveGrid(ByteTime End,
                                        std::uint32_t NumSamples);

/// Builds the curve from \p Log with \p NumSamples uniform samples over
/// [0, Log.EndTime]. Implemented on HeapCurveFold (one pass over the
/// records, O(NumSamples) state).
HeapCurve buildHeapCurve(const profiler::ProfileLog &Log,
                         std::uint32_t NumSamples = 256);

/// Column headers of the per-object record CSV.
const std::vector<std::string> &recordsCsvColumns();

/// One record's CSV row, in recordsCsvColumns() order. Shared by the
/// materialized recordsCsv() and the streaming CsvExportFold so their
/// output is byte-identical.
std::vector<std::string> recordCsvRow(const ir::Program &P,
                                      const profiler::SiteTable &Sites,
                                      const profiler::ObjectRecord &R);

/// Dumps every object record as CSV (one row per object: class, bytes,
/// alloc/first-use/last-use/collect times, lag/use/drag/void, sites) for
/// external plotting or spreadsheet analysis.
CsvWriter recordsCsv(const ir::Program &P, const profiler::ProfileLog &Log);

/// Emits a Figure 2 panel for one benchmark: columns
/// time_mb, orig_reachable_mb, orig_inuse_mb, rev_reachable_mb,
/// rev_inuse_mb. The two logs may have different end times; the grid
/// covers the longer one (shorter run contributes zeros past its end,
/// matching the paper's "occur earlier in the graph" effect).
CsvWriter figure2Csv(const profiler::ProfileLog &Original,
                     const profiler::ProfileLog &Revised,
                     std::uint32_t NumSamples = 256);

} // namespace jdrag::analysis

#endif // JDRAG_ANALYSIS_HEAPCURVES_H
