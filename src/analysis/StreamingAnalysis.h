//===- analysis/StreamingAnalysis.h - One-pass .jdev analysis ---*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming phase-2 entry point: runs every requested analysis --
/// drag report, lifetime decomposition, heap curves, per-object CSV
/// export -- in ONE pass over a `.jdev` recording, folding records the
/// moment the replay decoder emits them (analysis/RecordFold.h). Peak
/// memory is O(live objects + distinct sites + curve samples); the
/// per-object record vector the materialized path builds (~80 B per
/// object ever allocated) is never allocated.
///
/// With Jobs > 1 the pass shards across the recording's chunk index
/// (profiler/ParallelReplay.h): each decode worker folds its records
/// into shard-local partials, merged deterministically afterwards.
/// Every result is bit-identical to the materialized pass -- ExactSum
/// accumulators make floating-point summation order-free -- which the
/// `--materialize` oracle path (sequential replayProfile() into a record
/// vector) and the report_smoke byte-diff enforce.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_ANALYSIS_STREAMINGANALYSIS_H
#define JDRAG_ANALYSIS_STREAMINGANALYSIS_H

#include "analysis/DragReport.h"
#include "analysis/HeapCurves.h"
#include "analysis/LagDragVoid.h"
#include "profiler/DragProfiler.h"

#include <memory>
#include <string>

namespace jdrag::analysis {

/// What analyzeEventStream should compute in its single pass.
struct StreamAnalysisOptions {
  profiler::ProfilerConfig Config;
  /// Decode workers. > 1 shards the pass over the chunk index (curves,
  /// report and lifetimes merge exactly); an export keeps the pass
  /// sequential regardless, because the CSV is row-order-sensitive. The
  /// materialized path ignores it: it always replays sequentially.
  unsigned Jobs = 1;
  bool WantReport = true;
  bool WantLifetimes = false;
  /// Grid size for the Figure 2 curves; 0 = no curve. Needs the stream
  /// end time up front, peeked from the chunk-index footer (or a
  /// one-pass index rebuild for footerless streams).
  std::uint32_t CurveSamples = 0;
  /// Non-empty = stream the per-object CSV to this path as records fold.
  std::string ExportCsvPath;
  /// Skip streaming entirely and run the materialized pipeline: one
  /// sequential replayProfile() into ProfileLog::Records, then the
  /// analyses over the vector, whatever Jobs says. The CLI's
  /// `--materialize` bit-identity oracle, independent of the sharded and
  /// streaming code it checks.
  bool ForceMaterialize = false;
};

/// Everything the pass produced. Report (when requested) references
/// *Shell, so keep the result object alive as long as the report.
struct StreamAnalysisResult {
  /// The record-free log shell: sites, GC samples, end time, sampling
  /// params, health. Records is empty unless the pass fell back to the
  /// materialized path (Materialized below).
  std::unique_ptr<profiler::ProfileLog> Shell;
  std::unique_ptr<DragReport> Report; ///< set when WantReport
  LifetimeDecomposition Lifetimes;    ///< set when WantLifetimes
  HeapCurve Curve;                    ///< set when CurveSamples > 0
  std::uint64_t RecordsFolded = 0;
  std::uint64_t ExportRows = 0;
  /// Resident high-water of the analysis state, the fold bytes: the
  /// O(sites) claim made measurable (BENCH_9). Records arrive finished,
  /// so nothing is kept per live object.
  std::size_t FoldStateBytes = 0;
  bool Sharded = false;      ///< the sharded fold path actually ran
  bool Materialized = false; ///< fell back to the materialized pass
};

/// Peeks the recording's end time (the Terminate event's byte-clock
/// time) without replaying it: reads the chunk-index footer from the
/// file tail, or rebuilds the index with one pass for footerless v4+
/// streams. Returns false for v2/v3 streams, which have no chunk index.
/// Footer claims are unverified -- callers that act on them must
/// cross-check against the replay's observed end time.
bool peekStreamEndTime(const std::string &Path, ByteTime &End);

/// Runs the requested analyses in one streaming pass over the `.jdev`
/// recording at \p Path. Falls back to the materialized pipeline (same
/// results, O(records) memory) when streaming preconditions fail --
/// e.g. no end time is peekable for a requested curve, or a footer's
/// claimed end time disagrees with the decode. Returns false with
/// \p Err on a malformed recording or export I/O failure.
bool analyzeEventStream(const std::string &Path, const ir::Program &P,
                        const StreamAnalysisOptions &O,
                        StreamAnalysisResult &Out, std::string *Err = nullptr);

} // namespace jdrag::analysis

#endif // JDRAG_ANALYSIS_STREAMINGANALYSIS_H
