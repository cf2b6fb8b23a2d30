//===- analysis/RecordFold.cpp --------------------------------------------===//

#include "analysis/RecordFold.h"

#include "support/ErrorHandling.h"

#include <algorithm>
#include <map>

using namespace jdrag;
using namespace jdrag::analysis;
using profiler::ObjectRecord;

//===----------------------------------------------------------------------===//
// SiteGroupFold
//===----------------------------------------------------------------------===//

SiteGroupFold::SiteGroupFold(std::uint64_t SampleRate,
                             std::uint32_t SiteCountHint)
    : Rate(SampleRate), SiteIndex(SiteCountHint),
      LastUseIndex(SiteCountHint * 2), ClassIndex(64) {
  Groups.reserve(SiteCountHint);
  LastUse.reserve(SiteCountHint * 2);
  Classes.reserve(64);
}

std::uint32_t SiteGroupFold::groupFor(SiteId Site) {
  std::uint32_t Next = static_cast<std::uint32_t>(Groups.size());
  std::uint32_t GI = SiteIndex.lookupOrInsert(Site, Next);
  if (GI == Next) {
    Groups.emplace_back();
    Groups.back().Site = Site;
  }
  return GI;
}

std::uint32_t SiteGroupFold::lastUseFor(std::uint64_t Key) {
  std::uint32_t Next = static_cast<std::uint32_t>(LastUse.size());
  std::uint32_t LI = LastUseIndex.lookupOrInsert(Key, Next);
  if (LI == Next) {
    LastUse.emplace_back();
    LastUse.back().Key = Key;
  }
  return LI;
}

std::uint32_t SiteGroupFold::classFor(std::uint64_t Key) {
  std::uint32_t Next = static_cast<std::uint32_t>(Classes.size());
  std::uint32_t CI = ClassIndex.lookupOrInsert(Key, Next);
  if (CI == Next) {
    Classes.emplace_back();
    Classes.back().Key = Key;
  }
  return CI;
}

void SiteGroupFold::fold(const ObjectRecord &R) {
  ++Records;
  std::uint32_t GI = groupFor(R.AllocSite);
  GroupAccum &G = Groups[GI];

  // Sums of integer products go through ExactSum::addProduct: it adds
  // exactly what the double product would, and a product below 2^53
  // lands on the integer lane.
  const std::uint64_t Bytes = R.Bytes;
  const ByteTime DragTime = R.dragTime(), LifeTime = R.lifeTime();
  double DragRaw = R.drag();
  double Drag = DragRaw;

  ++G.ObjectCount;
  G.TotalBytes += Bytes;
  if (Rate != 0) {
    // Sampled logs hold a size-weighted Bernoulli subset of the
    // allocations; every space-time sum is scaled by the record's
    // inverse inclusion probability so the report estimates the exact
    // profile (Horvitz-Thompson).
    double B = static_cast<double>(Bytes);
    double Prob = profiler::sampleProbability(Bytes, Rate);
    double W = 1.0 / Prob;
    Drag = DragRaw * W;
    G.EstObjects.add(W);
    G.EstBytes.add(W * B);
    G.TotalDrag.add(Drag);
    G.DragVariance.add(profiler::sampleVarianceTerm(DragRaw, Prob));
    TotalDragSum.add(Drag);
    ReachableSum.add(W * B * static_cast<double>(LifeTime));
    InUseSum.add(W * B * static_cast<double>(R.inUseTime()));
  } else {
    // Exact logs: W == 1.0 bit-exactly, which makes five of the
    // weighted sums above recoverable from cheaper state at finish()
    // -- EstObjects == ObjectCount, EstBytes == TotalBytes, TotalDrag
    // == DragSum, DragVariance == 0, and the program-wide drag total
    // is the (exactly associative) sum of the group drag sums -- so
    // the hot path skips those ExactSum adds entirely.
    ReachableSum.addProduct(Bytes, LifeTime);
    InUseSum.addProduct(Bytes, R.inUseTime());
  }
  // Drag as the partitions weigh it: Bytes x DragTime on exact logs,
  // the weighted double on sampled ones.
  auto AddDrag = [&](ExactSum &S) {
    if (Rate != 0)
      S.add(Drag);
    else
      S.addProduct(Bytes, DragTime);
  };

  // Per-object distributions describe the sampled records themselves,
  // not the population, so they stay unweighted. Below 2^53 DragRaw is
  // exactly the integer Bytes x DragTime, so its square is an integer
  // product too.
  const unsigned __int128 DragInt =
      static_cast<unsigned __int128>(Bytes) * DragTime;
  if (DragInt < ExactSum::LaneLimit) {
    auto D = static_cast<std::uint64_t>(DragInt);
    G.DragSum.addProduct(D, 1);
    G.DragSq.addProduct(D, D);
  } else {
    G.DragSum.add(DragRaw);
    G.DragSq.add(DragRaw * DragRaw);
  }
  G.DragTimeSum.addProduct(DragTime, 1);
  G.DragTimeSq.addProduct(DragTime, DragTime);
  G.LifeSum.addProduct(LifeTime, 1);
  G.LifeSq.addProduct(LifeTime, LifeTime);
  double DragTimeD = static_cast<double>(DragTime);
  double LifeTimeD = static_cast<double>(LifeTime);
  G.DragMin = std::min(G.DragMin, DragRaw);
  G.DragMax = std::max(G.DragMax, DragRaw);
  G.DragTimeMin = std::min(G.DragTimeMin, DragTimeD);
  G.DragTimeMax = std::max(G.DragTimeMax, DragTimeD);
  G.LifeMin = std::min(G.LifeMin, LifeTimeD);
  G.LifeMax = std::max(G.LifeMax, LifeTimeD);
  if (R.neverUsed()) {
    ++G.NeverUsedCount;
    AddDrag(G.NeverUsedDrag);
  }
  if (LifeTime > 0 && DragTimeD >= LifeTimeD / 3.0)
    ++G.LargeDragCount;
  ++G.Histo[SiteGroup::histoBucket(DragTime)];

  std::uint64_t LUKey =
      (static_cast<std::uint64_t>(GI) << 32) |
      (R.neverUsed() ? profiler::InvalidSite : R.LastUseSite);
  AddDrag(LastUse[lastUseFor(LUKey)].Drag);

  std::uint64_t CKey =
      R.IsArray ? (1ull << 40) + static_cast<std::uint64_t>(R.AKind)
                : R.Class.Index;
  ClassAccum &C = Classes[classFor(CKey)];
  if (C.ObjectCount == 0) {
    C.Class = R.Class;
    C.AKind = R.AKind;
    C.IsArray = R.IsArray;
  }
  ++C.ObjectCount;
  C.TotalBytes += Bytes;
  AddDrag(C.TotalDrag);
  if (R.neverUsed())
    ++C.NeverUsedCount;
}

void SiteGroupFold::merge(const SiteGroupFold &O) {
  Records += O.Records;

  // Site groups: each field is either an integer sum, a min/max, or an
  // ExactSum -- all order-free, so merged == sequential bit-for-bit.
  std::vector<std::uint32_t> GroupMap(O.Groups.size());
  for (std::size_t J = 0; J != O.Groups.size(); ++J) {
    const GroupAccum &From = O.Groups[J];
    std::uint32_t GI = groupFor(From.Site);
    GroupMap[J] = GI;
    GroupAccum &G = Groups[GI];
    G.ObjectCount += From.ObjectCount;
    G.NeverUsedCount += From.NeverUsedCount;
    G.TotalBytes += From.TotalBytes;
    G.LargeDragCount += From.LargeDragCount;
    G.EstObjects.add(From.EstObjects);
    G.EstBytes.add(From.EstBytes);
    G.TotalDrag.add(From.TotalDrag);
    G.DragVariance.add(From.DragVariance);
    G.NeverUsedDrag.add(From.NeverUsedDrag);
    G.DragSum.add(From.DragSum);
    G.DragSq.add(From.DragSq);
    G.DragTimeSum.add(From.DragTimeSum);
    G.DragTimeSq.add(From.DragTimeSq);
    G.LifeSum.add(From.LifeSum);
    G.LifeSq.add(From.LifeSq);
    G.DragMin = std::min(G.DragMin, From.DragMin);
    G.DragMax = std::max(G.DragMax, From.DragMax);
    G.DragTimeMin = std::min(G.DragTimeMin, From.DragTimeMin);
    G.DragTimeMax = std::max(G.DragTimeMax, From.DragTimeMax);
    G.LifeMin = std::min(G.LifeMin, From.LifeMin);
    G.LifeMax = std::max(G.LifeMax, From.LifeMax);
    for (std::size_t B = 0; B != G.Histo.size(); ++B)
      G.Histo[B] += From.Histo[B];
  }

  // Last-use cells carry the *other* fold's group index in their key;
  // translate through GroupMap.
  for (const LastUseAccum &From : O.LastUse) {
    std::uint64_t Key =
        (static_cast<std::uint64_t>(GroupMap[From.Key >> 32]) << 32) |
        (From.Key & 0xFFFFFFFFull);
    LastUse[lastUseFor(Key)].Drag.add(From.Drag);
  }

  for (const ClassAccum &From : O.Classes) {
    ClassAccum &C = Classes[classFor(From.Key)];
    if (C.ObjectCount == 0) {
      C.Class = From.Class;
      C.AKind = From.AKind;
      C.IsArray = From.IsArray;
    }
    C.ObjectCount += From.ObjectCount;
    C.TotalBytes += From.TotalBytes;
    C.NeverUsedCount += From.NeverUsedCount;
    C.TotalDrag.add(From.TotalDrag);
  }

  TotalDragSum.add(O.TotalDragSum);
  ReachableSum.add(O.ReachableSum);
  InUseSum.add(O.InUseSum);
}

void SiteGroupFold::remapSites(const std::vector<profiler::SiteId> &Map) {
  auto Remap = [&](SiteId Id) {
    return Id < Map.size() ? Map[Id] : profiler::InvalidSite;
  };
  for (GroupAccum &G : Groups)
    G.Site = Remap(G.Site);
  for (LastUseAccum &L : LastUse) {
    SiteId Use = static_cast<SiteId>(L.Key & 0xFFFFFFFFull);
    L.Key = (L.Key & ~0xFFFFFFFFull) | Remap(Use);
  }
  // The probe indexes now hold stale keys; per the fold contract
  // (RecordFold.h) no fold()/merge() follows a remap, so they are never
  // consulted again (finish() walks the accumulator vectors directly).
}

std::size_t SiteGroupFold::stateBytes() const {
  return sizeof(*this) + Groups.capacity() * sizeof(GroupAccum) +
         LastUse.capacity() * sizeof(LastUseAccum) +
         Classes.capacity() * sizeof(ClassAccum) + SiteIndex.stateBytes() +
         LastUseIndex.stateBytes() + ClassIndex.stateBytes();
}

DragReportData SiteGroupFold::finish(const ir::Program &,
                                     const profiler::SiteTable &Sites) const {
  DragReportData Data;
  Data.Groups.reserve(Groups.size());
  for (const GroupAccum &A : Groups) {
    SiteGroup G;
    G.Site = A.Site;
    G.ObjectCount = A.ObjectCount;
    G.NeverUsedCount = A.NeverUsedCount;
    G.TotalBytes = A.TotalBytes;
    G.LargeDragCount = A.LargeDragCount;
    // Exact logs never fed the weighted accumulators (see fold());
    // reconstruct from the integer state. Both sides of each branch are
    // correctly rounded values of the same exact quantity, so the
    // reconstruction is bit-identical to the accumulated form.
    G.EstObjects = Rate ? A.EstObjects.toDouble()
                        : static_cast<double>(A.ObjectCount);
    G.EstBytes = Rate ? A.EstBytes.toDouble()
                      : static_cast<double>(A.TotalBytes);
    G.TotalDrag = Rate ? A.TotalDrag.toDouble() : A.DragSum.toDouble();
    G.NeverUsedDrag = A.NeverUsedDrag.toDouble();
    G.DragVariance = A.DragVariance.toDouble();
    G.DragTimeHisto = A.Histo;
    // Exact moment sums -> Welford form. N >= 1 always (a group exists
    // only once a record folded into it). M2 = sum(X^2) - N*mean^2,
    // clamped: the subtraction can go slightly negative in rounding.
    auto Stat = [](std::uint64_t N, const ExactSum &Sum, const ExactSum &Sq,
                   double Min, double Max) {
      double S = Sum.toDouble();
      double Mean = S / static_cast<double>(N);
      double M2 = std::max(0.0, Sq.toDouble() - S * Mean);
      return RunningStat::fromMoments(N, Mean, M2, Min, Max);
    };
    G.DragPerObject = Stat(A.ObjectCount, A.DragSum, A.DragSq, A.DragMin,
                           A.DragMax);
    G.DragTimePerObject = Stat(A.ObjectCount, A.DragTimeSum, A.DragTimeSq,
                               A.DragTimeMin, A.DragTimeMax);
    G.LifeTimePerObject = Stat(A.ObjectCount, A.LifeSum, A.LifeSq, A.LifeMin,
                               A.LifeMax);
    Data.Groups.push_back(std::move(G));
  }

  // Attach the last-use partitions. Fold insertion order is
  // path-dependent (shards discover sites in their own order), so each
  // group's cells are sorted site-ascending -- the deterministic order
  // dominantLastUseSite() and the printers rely on.
  // Data.Groups is still in accumulator order here, so the cell's group
  // index addresses it directly.
  for (const LastUseAccum &L : LastUse) {
    std::uint32_t GI = static_cast<std::uint32_t>(L.Key >> 32);
    SiteId Use = static_cast<SiteId>(L.Key & 0xFFFFFFFFull);
    Data.Groups[GI].DragByLastUse.push_back({Use, L.Drag.toDouble()});
  }
  for (SiteGroup &G : Data.Groups)
    std::sort(G.DragByLastUse.begin(), G.DragByLastUse.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });

  // Deterministic tie-break: (drag desc, site asc) is a total order over
  // groups, so sequential, materialized and shard-merged folds -- which
  // discover sites in different orders -- all present the same sorted
  // report. This sort is what makes the merge path's output identical.
  std::sort(Data.Groups.begin(), Data.Groups.end(),
            [](const SiteGroup &A, const SiteGroup &B) {
              if (A.TotalDrag != B.TotalDrag)
                return A.TotalDrag > B.TotalDrag;
              return A.Site < B.Site;
            });
  Data.GroupIndex.reserve(Data.Groups.size());
  for (std::size_t I = 0, E = Data.Groups.size(); I != E; ++I)
    Data.GroupIndex[Data.Groups[I].Site] = I;

  // Coarse partition: key on the innermost frame of the nested site.
  struct CoarseKey {
    std::uint32_t MethodIndex;
    std::uint32_t Pc;
    bool operator<(const CoarseKey &O) const {
      return MethodIndex != O.MethodIndex ? MethodIndex < O.MethodIndex
                                          : Pc < O.Pc;
    }
  };
  std::map<CoarseKey, CoarseGroup> Coarse;
  for (const SiteGroup &G : Data.Groups) {
    const profiler::SiteFrame *Inner = Sites.innermost(G.Site);
    CoarseKey Key{Inner ? Inner->Method.Index : ~0u, Inner ? Inner->Pc : 0};
    CoarseGroup &C = Coarse[Key];
    if (C.NestedSites.empty() && Inner) {
      C.Method = Inner->Method;
      C.Pc = Inner->Pc;
      C.Line = Inner->Line;
    }
    C.TotalDrag += G.TotalDrag;
    C.ObjectCount += G.ObjectCount;
    C.NeverUsedCount += G.NeverUsedCount;
    C.NeverUsedDrag += G.NeverUsedDrag;
    C.NestedSites.push_back(G.Site);
  }
  Data.CoarseGroups.reserve(Coarse.size());
  for (auto &[Key, C] : Coarse)
    Data.CoarseGroups.push_back(std::move(C));
  std::sort(Data.CoarseGroups.begin(), Data.CoarseGroups.end(),
            [](const CoarseGroup &A, const CoarseGroup &B) {
              if (A.TotalDrag != B.TotalDrag)
                return A.TotalDrag > B.TotalDrag;
              if (A.Method != B.Method)
                return A.Method < B.Method;
              return A.Pc < B.Pc;
            });

  Data.ClassGroups.reserve(Classes.size());
  std::vector<std::uint64_t> ClassKeys;
  ClassKeys.reserve(Classes.size());
  for (const ClassAccum &A : Classes) {
    ClassGroup G;
    G.Class = A.Class;
    G.AKind = A.AKind;
    G.IsArray = A.IsArray;
    G.ObjectCount = A.ObjectCount;
    G.TotalBytes = A.TotalBytes;
    G.NeverUsedCount = A.NeverUsedCount;
    G.TotalDrag = A.TotalDrag.toDouble();
    Data.ClassGroups.push_back(std::move(G));
  }
  std::sort(Data.ClassGroups.begin(), Data.ClassGroups.end(),
            [](const ClassGroup &A, const ClassGroup &B) {
              if (A.TotalDrag != B.TotalDrag)
                return A.TotalDrag > B.TotalDrag;
              if (A.TotalBytes != B.TotalBytes)
                return A.TotalBytes > B.TotalBytes;
              // Same partition key order as the accumulator table: the
              // final deterministic tie-break (class index, arrays
              // bucketed above by kind).
              std::uint64_t KA = A.IsArray
                                     ? (1ull << 40) +
                                           static_cast<std::uint64_t>(A.AKind)
                                     : A.Class.Index;
              std::uint64_t KB = B.IsArray
                                     ? (1ull << 40) +
                                           static_cast<std::uint64_t>(B.AKind)
                                     : B.Class.Index;
              return KA < KB;
            });

  if (Rate) {
    Data.TotalDragSum = TotalDragSum.toDouble();
  } else {
    // Exact associativity makes the sum of group sums the per-record
    // total, bit for bit.
    ExactSum Total;
    for (const GroupAccum &A : Groups)
      Total.add(A.DragSum);
    Data.TotalDragSum = Total.toDouble();
  }
  Data.ReachableSum = ReachableSum.toDouble();
  Data.InUseSum = InUseSum.toDouble();
  return Data;
}

//===----------------------------------------------------------------------===//
// LifetimeFold
//===----------------------------------------------------------------------===//

void LifetimeFold::fold(const ObjectRecord &R) {
  unsigned __int128 B = R.Bytes;
  if (R.neverUsed())
    Void += B * R.voidTime();
  else {
    Lag += B * R.lagTime();
    Use += B * R.useTime();
    Drag += B * R.dragTime();
  }
  Reachable += B * R.lifeTime();
}

void LifetimeFold::merge(const LifetimeFold &O) {
  Lag += O.Lag;
  Use += O.Use;
  Drag += O.Drag;
  Void += O.Void;
  Reachable += O.Reachable;
}

LifetimeDecomposition LifetimeFold::finish() const {
  LifetimeDecomposition D;
  D.Lag = static_cast<SpaceTime>(Lag);
  D.Use = static_cast<SpaceTime>(Use);
  D.Drag = static_cast<SpaceTime>(Drag);
  D.Void = static_cast<SpaceTime>(Void);
  return D;
}

//===----------------------------------------------------------------------===//
// HeapCurveFold
//===----------------------------------------------------------------------===//

HeapCurveFold::HeapCurveFold(ByteTime End, std::uint32_t NumSamples)
    : Grid(makeHeapCurveGrid(End, NumSamples)), ReachDelta(Grid.size(), 0),
      InUseDelta(Grid.size(), 0) {}

void HeapCurveFold::addInterval(std::vector<std::int64_t> &Delta,
                                ByteTime From, ByteTime To,
                                std::int64_t Bytes) {
  // An event at time t affects exactly the grid cells with Grid[i] >= t.
  // Events past the last grid time -- possible only if the caller's End
  // undershot the log -- are dropped.
  auto Bucket = [&](ByteTime T) {
    return std::lower_bound(Grid.begin(), Grid.end(), T) - Grid.begin();
  };
  std::size_t Lo = Bucket(From), Hi = Bucket(To);
  if (Lo < Delta.size())
    Delta[Lo] += Bytes;
  if (Hi < Delta.size())
    Delta[Hi] -= Bytes;
}

void HeapCurveFold::fold(const ObjectRecord &R) {
  auto B = static_cast<std::int64_t>(R.Bytes);
  if (R.CollectTime > R.AllocTime)
    addInterval(ReachDelta, R.AllocTime, R.CollectTime, B);
  if (R.LastUseTime > R.AllocTime)
    addInterval(InUseDelta, R.AllocTime, R.LastUseTime, B);
}

void HeapCurveFold::merge(const HeapCurveFold &O) {
  if (O.Grid != Grid)
    jdrag_unreachable("merging curve folds over different grids");
  for (std::size_t I = 0; I != ReachDelta.size(); ++I) {
    ReachDelta[I] += O.ReachDelta[I];
    InUseDelta[I] += O.InUseDelta[I];
  }
}

std::size_t HeapCurveFold::stateBytes() const {
  return sizeof(*this) + Grid.capacity() * sizeof(ByteTime) +
         (ReachDelta.capacity() + InUseDelta.capacity()) *
             sizeof(std::int64_t);
}

HeapCurve HeapCurveFold::finish() const {
  HeapCurve C;
  C.Times = Grid;
  C.ReachableBytes.reserve(Grid.size());
  C.InUseBytes.reserve(Grid.size());
  std::int64_t Reach = 0, InUse = 0;
  for (std::size_t I = 0; I != Grid.size(); ++I) {
    Reach += ReachDelta[I];
    InUse += InUseDelta[I];
    C.ReachableBytes.push_back(
        static_cast<std::uint64_t>(std::max<std::int64_t>(0, Reach)));
    C.InUseBytes.push_back(
        static_cast<std::uint64_t>(std::max<std::int64_t>(0, InUse)));
  }
  return C;
}

//===----------------------------------------------------------------------===//
// CsvExportFold
//===----------------------------------------------------------------------===//

CsvExportFold::CsvExportFold(const ir::Program &P,
                             const profiler::SiteTable &Sites,
                             const std::string &Path)
    : P(P), Sites(Sites) {
  Out = std::fopen(Path.c_str(), "w");
  Ok = Out != nullptr;
  if (!Ok)
    return;
  std::string Header;
  const std::vector<std::string> &Cols = recordsCsvColumns();
  for (std::size_t I = 0; I != Cols.size(); ++I) {
    if (I)
      Header += ',';
    Header += CsvWriter::escapeCell(Cols[I]);
  }
  Header += '\n';
  Ok = std::fwrite(Header.data(), 1, Header.size(), Out) == Header.size();
}

CsvExportFold::~CsvExportFold() {
  if (Out)
    std::fclose(Out);
}

void CsvExportFold::fold(const ObjectRecord &R) {
  if (!Ok)
    return;
  std::string Row;
  std::vector<std::string> Cells = recordCsvRow(P, Sites, R);
  for (std::size_t I = 0; I != Cells.size(); ++I) {
    if (I)
      Row += ',';
    Row += CsvWriter::escapeCell(Cells[I]);
  }
  Row += '\n';
  Ok = std::fwrite(Row.data(), 1, Row.size(), Out) == Row.size();
  ++Rows;
}

bool CsvExportFold::finish() {
  if (Out) {
    if (std::fclose(Out) != 0)
      Ok = false;
    Out = nullptr;
  }
  return Ok;
}
