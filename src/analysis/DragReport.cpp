//===- analysis/DragReport.cpp --------------------------------------------===//

#include "analysis/DragReport.h"

#include "analysis/RecordFold.h"
#include "support/Format.h"

#include <algorithm>

using namespace jdrag;
using namespace jdrag::analysis;

std::string SiteGroup::histoBucketLabel(std::size_t Bucket) {
  auto Fmt = [](ByteTime B) {
    if (B >= 1024 * 1024)
      return formatString("%lluM",
                          static_cast<unsigned long long>(B / (1024 * 1024)));
    return formatString("%lluK",
                        static_cast<unsigned long long>(B / 1024));
  };
  ByteTime Lo = 4 * 1024;
  for (std::size_t I = 0; I != Bucket; ++I)
    Lo *= 4;
  if (Bucket == 0)
    return "<" + Fmt(Lo);
  if (Bucket + 1 == NumHistoBuckets)
    return ">=" + Fmt(Lo / 4); // lower edge of the open bucket
  return Fmt(Lo / 4) + "-" + Fmt(Lo);
}

std::string ClassGroup::name(const ir::Program &P) const {
  if (IsArray)
    return ir::arrayKindName(AKind);
  if (!Class.isValid() || Class.Index >= P.Classes.size())
    return "<unknown>";
  return P.classOf(Class).Name;
}

SiteId SiteGroup::dominantLastUseSite() const {
  // DragByLastUse is sorted site-ascending, so strict > picks the
  // lowest-id site among exact ties -- the same answer on every
  // aggregation path.
  SiteId Best = InvalidSite;
  SpaceTime BestDrag = -1.0;
  for (const auto &[Site, Drag] : DragByLastUse)
    if (Site != InvalidSite && Drag > BestDrag) {
      Best = Site;
      BestDrag = Drag;
    }
  return Best;
}

DragReport::DragReport(const ir::Program &P, const ProfileLog &Log)
    : P(P), TheLog(Log), End(Log.EndTime) {
  // One pass through Log.Records feeding the same fold the streaming
  // engine runs off the decoder -- so `--materialize` really is a
  // bit-identity oracle, not a second implementation to keep in sync.
  // The site-table size hint presizes the group storage and the probe
  // index (a log's distinct alloc sites are a subset of its sites).
  SiteGroupFold Fold(Log.SampleRate, Log.Sites.size());
  for (const ObjectRecord &R : Log.Records)
    Fold.fold(R);
  adopt(Fold.finish(P, Log.Sites));
}

DragReport::DragReport(const ir::Program &P, const ProfileLog &Log,
                       DragReportData Data)
    : P(P), TheLog(Log), End(Log.EndTime) {
  adopt(std::move(Data));
}

void DragReport::adopt(DragReportData Data) {
  Groups = std::move(Data.Groups);
  CoarseGroups = std::move(Data.CoarseGroups);
  ClassGroups = std::move(Data.ClassGroups);
  GroupIndex = std::move(Data.GroupIndex);
  TotalDragSum = Data.TotalDragSum;
  ReachableSum = Data.ReachableSum;
  InUseSum = Data.InUseSum;
}

const SiteGroup *DragReport::group(SiteId Site) const {
  auto It = GroupIndex.find(Site);
  return It == GroupIndex.end() ? nullptr : &Groups[It->second];
}
