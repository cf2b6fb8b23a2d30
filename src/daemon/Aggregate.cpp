//===- daemon/Aggregate.cpp -----------------------------------------------===//

#include "daemon/Aggregate.h"

#include "analysis/DragReport.h"
#include "support/Format.h"

#include <algorithm>
#include <vector>

using namespace jdrag;
using namespace jdrag::daemon;

void FleetAggregate::fold(const std::string &Bench,
                          const analysis::DragReport &Report) {
  const ir::Program &P = Report.program();
  const profiler::ProfileLog &Log = Report.log();
  const profiler::SiteTable &Sites = Log.Sites;
  bool Sampled = Log.SampleRate != 0;
  for (const analysis::SiteGroup &G : Report.groups()) {
    std::string Site = G.Site == profiler::InvalidSite
                           ? std::string("<unknown site>")
                           : Sites.describe(P, G.Site);
    FleetRow &Row = Rows[Bench + "  " + Site];
    // TotalDrag from a sampled log is already the scaled HT estimate
    // (analysis/DragReport.cpp), so exact and sampled sessions fold
    // into commensurable units; SampledSessions flags the mixture.
    Row.Drag += G.TotalDrag;
    Row.Objects += G.ObjectCount;
    Row.Bytes += G.TotalBytes;
    ++Row.Sessions;
    Row.SampledSessions += Sampled;
    Total += G.TotalDrag;
  }
  ++Folded;
  SampledFolded += Sampled;
}

std::string FleetAggregate::renderTop(std::size_t N) const {
  std::vector<std::pair<const std::string *, const FleetRow *>> Sorted;
  Sorted.reserve(Rows.size());
  for (const auto &KV : Rows)
    Sorted.emplace_back(&KV.first, &KV.second);
  // Stable sort over the ordered map keeps equal-drag rows in key order.
  std::stable_sort(Sorted.begin(), Sorted.end(),
                   [](const auto &A, const auto &B) {
                     return A.second->Drag > B.second->Drag;
                   });
  if (N < Sorted.size())
    Sorted.resize(N);
  std::string Out;
  std::size_t Rank = 0;
  for (const auto &[Key, Row] : Sorted)
    Out += formatString("%3zu %12.4f MB^2 %10llu objs %12llu bytes  %s%s\n",
                        ++Rank, toMB2(Row->Drag),
                        static_cast<unsigned long long>(Row->Objects),
                        static_cast<unsigned long long>(Row->Bytes),
                        Key->c_str(),
                        Row->SampledSessions ? "  [sampled estimate]" : "");
  return Out;
}
