//===- analysis/HeapCurves.cpp --------------------------------------------===//

#include "analysis/HeapCurves.h"

#include "analysis/RecordFold.h"
#include "support/Format.h"

#include <algorithm>

using namespace jdrag;
using namespace jdrag::analysis;
using profiler::ObjectRecord;
using profiler::ProfileLog;

namespace {

/// \p Log's records folded onto the grid over [0, \p End].
HeapCurve foldCurve(const ProfileLog &Log, ByteTime End,
                    std::uint32_t NumSamples) {
  HeapCurveFold Fold(End, NumSamples);
  for (const ObjectRecord &R : Log.Records)
    Fold.fold(R);
  return Fold.finish();
}

} // namespace

std::vector<ByteTime>
jdrag::analysis::makeHeapCurveGrid(ByteTime End, std::uint32_t NumSamples) {
  std::vector<ByteTime> Grid;
  if (NumSamples == 0)
    return Grid;
  Grid.reserve(NumSamples);
  for (std::uint32_t I = 0; I != NumSamples; ++I)
    Grid.push_back(static_cast<ByteTime>(
        (static_cast<unsigned __int128>(End) * (I + 1)) / NumSamples));
  return Grid;
}

SpaceTime HeapCurve::reachableIntegral() const {
  SpaceTime Sum = 0;
  for (std::size_t I = 0; I != Times.size(); ++I) {
    ByteTime Prev = I ? Times[I - 1] : 0;
    Sum += static_cast<SpaceTime>(ReachableBytes[I]) *
           static_cast<SpaceTime>(Times[I] - Prev);
  }
  return Sum;
}

SpaceTime HeapCurve::inUseIntegral() const {
  SpaceTime Sum = 0;
  for (std::size_t I = 0; I != Times.size(); ++I) {
    ByteTime Prev = I ? Times[I - 1] : 0;
    Sum += static_cast<SpaceTime>(InUseBytes[I]) *
           static_cast<SpaceTime>(Times[I] - Prev);
  }
  return Sum;
}

std::uint64_t HeapCurve::peakReachable() const {
  std::uint64_t Peak = 0;
  for (std::uint64_t V : ReachableBytes)
    Peak = std::max(Peak, V);
  return Peak;
}

HeapCurve jdrag::analysis::buildHeapCurve(const ProfileLog &Log,
                                          std::uint32_t NumSamples) {
  return foldCurve(Log, Log.EndTime, NumSamples);
}

const std::vector<std::string> &jdrag::analysis::recordsCsvColumns() {
  static const std::vector<std::string> Columns = {
      "id",   "class", "bytes", "alloc",      "first_use",
      "last_use", "collect", "lag", "use",    "drag",
      "void", "never_used", "survived", "alloc_site", "last_use_site"};
  return Columns;
}

std::vector<std::string>
jdrag::analysis::recordCsvRow(const ir::Program &P,
                              const profiler::SiteTable &Sites,
                              const ObjectRecord &R) {
  std::string ClassName =
      R.IsArray ? ir::arrayKindName(R.AKind)
                : (R.Class.isValid() && R.Class.Index < P.Classes.size()
                       ? P.classOf(R.Class).Name
                       : "<unknown>");
  return {formatString("%llu", static_cast<unsigned long long>(R.Id)),
          ClassName,
          formatString("%u", R.Bytes),
          formatString("%llu", static_cast<unsigned long long>(R.AllocTime)),
          formatString("%llu",
                       static_cast<unsigned long long>(R.FirstUseTime)),
          formatString("%llu",
                       static_cast<unsigned long long>(R.LastUseTime)),
          formatString("%llu",
                       static_cast<unsigned long long>(R.CollectTime)),
          formatString("%llu", static_cast<unsigned long long>(R.lagTime())),
          formatString("%llu", static_cast<unsigned long long>(R.useTime())),
          formatString("%llu",
                       static_cast<unsigned long long>(R.dragTime())),
          formatString("%llu",
                       static_cast<unsigned long long>(R.voidTime())),
          R.neverUsed() ? "1" : "0",
          R.SurvivedToEnd ? "1" : "0",
          Sites.describe(P, R.AllocSite),
          R.LastUseSite != profiler::InvalidSite
              ? Sites.describe(P, R.LastUseSite)
              : ""};
}

CsvWriter jdrag::analysis::recordsCsv(const ir::Program &P,
                                      const ProfileLog &Log) {
  CsvWriter Csv(recordsCsvColumns());
  for (const ObjectRecord &R : Log.Records)
    Csv.addRow(recordCsvRow(P, Log.Sites, R));
  return Csv;
}

CsvWriter jdrag::analysis::figure2Csv(const ProfileLog &Original,
                                      const ProfileLog &Revised,
                                      std::uint32_t NumSamples) {
  ByteTime End = std::max(Original.EndTime, Revised.EndTime);
  HeapCurve Orig = foldCurve(Original, End, NumSamples);
  HeapCurve Rev = foldCurve(Revised, End, NumSamples);

  CsvWriter Csv({"time_mb", "orig_reachable_mb", "orig_inuse_mb",
                 "rev_reachable_mb", "rev_inuse_mb"});
  for (std::size_t I = 0; I != Orig.size(); ++I)
    Csv.addRow({formatFixed(toMB(Orig.Times[I]), 3),
                formatFixed(toMB(Orig.ReachableBytes[I]), 4),
                formatFixed(toMB(Orig.InUseBytes[I]), 4),
                formatFixed(toMB(Rev.ReachableBytes[I]), 4),
                formatFixed(toMB(Rev.InUseBytes[I]), 4)});
  return Csv;
}
