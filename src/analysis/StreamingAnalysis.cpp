//===- analysis/StreamingAnalysis.cpp -------------------------------------===//

#include "analysis/StreamingAnalysis.h"

#include "analysis/RecordFold.h"
#include "profiler/ParallelReplay.h"

#include <algorithm>
#include <fstream>

using namespace jdrag;
using namespace jdrag::analysis;
using namespace jdrag::profiler;

namespace {

/// Reads the last (up to) \p MaxBytes bytes of \p Path.
bool readTail(const std::string &Path, std::size_t MaxBytes,
              std::vector<std::byte> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  In.seekg(0, std::ios::end);
  std::streamoff End = In.tellg();
  if (End <= 0)
    return false;
  std::size_t N = std::min<std::size_t>(MaxBytes,
                                        static_cast<std::size_t>(End));
  In.seekg(End - static_cast<std::streamoff>(N));
  Out.resize(N);
  In.read(reinterpret_cast<char *>(Out.data()), static_cast<std::streamsize>(N));
  return static_cast<bool>(In);
}

ByteTime maxLastTime(const ChunkIndex &Idx) {
  ByteTime End = 0;
  for (const ChunkIndexEntry &En : Idx.Entries)
    End = std::max(End, En.LastTime);
  return End;
}

/// The materialized oracle: sequential replayProfile() into Records,
/// then the analyses over the vector -- identical results through code
/// that shares no sharding or streaming with the paths it checks. Also
/// the fallback and the error path: a damaged recording gets the
/// canonical sequential-replay error message.
bool analyzeMaterialized(const std::string &Path, const ir::Program &P,
                         const StreamAnalysisOptions &O,
                         StreamAnalysisResult &Out, std::string *Err) {
  auto Log = std::make_unique<ProfileLog>();
  if (!replayProfile(Path, P, O.Config, *Log, Err))
    return false;
  Out.Materialized = true;
  Out.Sharded = false;
  Out.RecordsFolded = Log->Records.size();
  Out.FoldStateBytes = Log->Records.size() * sizeof(ObjectRecord);
  if (O.WantLifetimes)
    Out.Lifetimes = decomposeLifetimes(*Log);
  if (O.CurveSamples)
    Out.Curve = buildHeapCurve(*Log, O.CurveSamples);
  if (!O.ExportCsvPath.empty()) {
    if (!recordsCsv(P, *Log).writeFile(O.ExportCsvPath)) {
      if (Err)
        *Err = "cannot write " + O.ExportCsvPath;
      return false;
    }
    Out.ExportRows = Log->Records.size();
  }
  Out.Shell = std::move(Log);
  if (O.WantReport)
    Out.Report = std::make_unique<DragReport>(P, *Out.Shell);
  return true;
}

/// Engages in \p S every fold \p O asks for except the export, which
/// needs the live site table and so only the sequential pass adds.
void engageFolds(FoldSet &S, const StreamAnalysisOptions &O,
                 std::uint64_t SampleRate, ByteTime CurveEnd) {
  if (O.WantReport)
    S.Report.emplace(SampleRate);
  if (O.WantLifetimes)
    S.Lifetimes.emplace();
  if (O.CurveSamples)
    S.Curve.emplace(CurveEnd, O.CurveSamples);
}

/// The ShardFoldSink gluing the sharded replay to the fold engine: one
/// FoldSet per shard. Boundary-crossing records (delivered
/// single-threaded by the merge step) fold into set 0, which is sound
/// because fold-then-merge is exactly order-free.
class ShardedFolds : public ShardFoldSink {
public:
  ShardedFolds(const StreamAnalysisOptions &O, std::uint64_t SampleRate,
               ByteTime CurveEnd)
      : O(O), SampleRate(SampleRate), CurveEnd(CurveEnd) {}

  void beginAttempt(unsigned ShardCount) override {
    Sets = std::vector<FoldSet>(ShardCount);
    for (FoldSet &S : Sets)
      engageFolds(S, O, SampleRate, CurveEnd);
  }

  void onShardRecord(unsigned Shard, const ObjectRecord &R) override {
    Sets[Shard].fold(R);
  }

  /// Merges shards 1..N-1 into shard 0 in shard order (any fixed order
  /// gives the same bits), remaps stream site ids to log-local ids, and
  /// returns the merged set.
  FoldSet &mergeAndRemap(const std::vector<SiteId> &SiteMap) {
    for (std::size_t K = 1; K < Sets.size(); ++K)
      Sets[0].merge(Sets[K]);
    Sets[0].remapSites(SiteMap);
    return Sets[0];
  }

  std::size_t stateBytes() const {
    std::size_t N = 0;
    for (const FoldSet &S : Sets)
      N += S.stateBytes();
    return N;
  }

  unsigned shardCount() const { return static_cast<unsigned>(Sets.size()); }

private:
  const StreamAnalysisOptions &O;
  std::uint64_t SampleRate;
  ByteTime CurveEnd;
  std::vector<FoldSet> Sets;
};

/// Hands the finished folds of \p S to \p Out. \p Out.Shell must be set.
void finishFolds(const FoldSet &S, const ir::Program &P,
                 StreamAnalysisResult &Out) {
  if (S.Lifetimes)
    Out.Lifetimes = S.Lifetimes->finish();
  if (S.Curve)
    Out.Curve = S.Curve->finish();
  if (S.Report)
    Out.Report = std::make_unique<DragReport>(
        P, *Out.Shell, S.Report->finish(P, Out.Shell->Sites));
}

} // namespace

bool jdrag::analysis::peekStreamEndTime(const std::string &Path,
                                        ByteTime &End) {
  // Fast path: the footer is at the tail, its size in its last 8 bytes.
  // 1 MB of tail covers ~20k chunk entries -- far beyond any recording
  // the tests or benchmarks produce; bigger footers fall through to the
  // rebuild below.
  std::vector<std::byte> Tail;
  if (readTail(Path, std::size_t(1) << 20, Tail)) {
    ChunkIndex Idx;
    if (peekChunkIndexFooterTail(std::span<const std::byte>(Tail), Idx) &&
        !Idx.Entries.empty()) {
      End = maxLastTime(Idx);
      return true;
    }
  }
  // Footerless v8 stream (an interrupted producer): one strict pass
  // rebuilds the index. O(chunks) state, and the bytes are released
  // before the replay proper starts. A legacy (v2-v7) stream has no
  // index to rebuild, so it fails here and curve requests take the
  // materialized path.
  StreamHeaderInfo Info;
  if (!readStreamHeader(Path, Info) || legacyFormat(Info.Format))
    return false;
  std::vector<std::byte> Bytes;
  if (!readWholeFile(Path, Bytes))
    return false;
  std::size_t HeaderBytes = streamHeaderBytes(Info.Format);
  if (Bytes.size() < HeaderBytes)
    return false;
  ChunkIndex Idx;
  if (!rebuildChunkIndex(std::span<const std::byte>(Bytes.data() + HeaderBytes,
                                                    Bytes.size() - HeaderBytes),
                         Idx))
    return false;
  End = maxLastTime(Idx);
  return true;
}

bool jdrag::analysis::analyzeEventStream(const std::string &Path,
                                         const ir::Program &P,
                                         const StreamAnalysisOptions &O,
                                         StreamAnalysisResult &Out,
                                         std::string *Err) {
  if (O.ForceMaterialize)
    return analyzeMaterialized(Path, P, O, Out, Err);

  StreamHeaderInfo Info;
  if (!readStreamHeader(Path, Info, Err))
    return false;
  std::uint64_t SampleRate = Info.Sampling.SampleBytes;

  // The curve fold needs its grid -- i.e. the end time -- before the
  // first record arrives. No peekable end time (torn tail, rebuild
  // refused) means the stream is damaged or exotic; the materialized
  // path owns both the fallback result and the canonical error.
  ByteTime PeekEnd = 0;
  if (O.CurveSamples && !peekStreamEndTime(Path, PeekEnd))
    return analyzeMaterialized(Path, P, O, Out, Err);

  // The CSV export writes rows in record order, so it pins the pass to
  // one decode thread; everything else shards.
  if (O.Jobs > 1 && O.ExportCsvPath.empty()) {
    ShardedFolds Folds(O, SampleRate, PeekEnd);
    auto Shell = std::make_unique<ProfileLog>();
    std::vector<SiteId> SiteMap;
    if (!replayProfileParallelFold(Path, P, O.Config, O.Jobs, Folds, *Shell,
                                   SiteMap, Err))
      return false;
    // A footer may lie about times; the decode is ground truth. A grid
    // built from a lie would misplace events, so recompute materialized.
    if (O.CurveSamples && Shell->EndTime != PeekEnd)
      return analyzeMaterialized(Path, P, O, Out, Err);
    FoldSet &Merged = Folds.mergeAndRemap(SiteMap);
    Out.Sharded = Folds.shardCount() > 1;
    Out.RecordsFolded = Merged.recordCount();
    Out.FoldStateBytes = Folds.stateBytes();
    Out.Shell = std::move(Shell);
    finishFolds(Merged, P, Out);
    return true;
  }

  // Sequential: one DragProfiler decode whose record sink is the fold
  // set. The profiler is driven directly (rather than through
  // replayProfileTo) so the export fold can reference the live site
  // table while rows stream out.
  DragProfiler Prof(P, O.Config);
  FoldSet Folds;
  engageFolds(Folds, O, SampleRate, PeekEnd);
  if (!O.ExportCsvPath.empty())
    Folds.Export.emplace(P, Prof.log().Sites, O.ExportCsvPath);
  Prof.setRecordSink(&Folds);

  if (!replayFile(Path, Prof, Err, &Info))
    return false;
  auto Shell = std::make_unique<ProfileLog>(Prof.takeLog());
  Shell->SampleRate = Info.Sampling.SampleBytes;
  Shell->SampleSeed = Info.Sampling.enabled() ? Info.Sampling.SampleSeed : 0;
  Shell->Compressed = Info.Compressed;

  if (O.CurveSamples && Shell->EndTime != PeekEnd)
    return analyzeMaterialized(Path, P, O, Out, Err); // lying footer

  Out.Sharded = false;
  Out.RecordsFolded = Folds.recordCount();
  Out.FoldStateBytes = Folds.stateBytes();
  if (Folds.Export) {
    if (!Folds.Export->finish()) {
      if (Err)
        *Err = "cannot write " + O.ExportCsvPath;
      return false;
    }
    Out.ExportRows = Folds.Export->rowCount();
  }
  Out.Shell = std::move(Shell);
  finishFolds(Folds, P, Out);
  return true;
}
