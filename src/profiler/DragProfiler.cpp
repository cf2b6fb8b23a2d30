//===- profiler/DragProfiler.cpp ------------------------------------------===//

#include "profiler/DragProfiler.h"

using namespace jdrag;
using namespace jdrag::profiler;
using namespace jdrag::vm;

DragProfiler::DragProfiler(const ir::Program &P, ProfilerConfig Config)
    : P(P), Config(std::move(Config)), Excluded(this->Config.ExcludedClasses) {
  // Typical runs intern a few hundred sites and log thousands of
  // objects; reserving up front keeps reallocation out of the measured
  // consumer path.
  SiteMap.reserve(256);
  Log.Records.reserve(1024);
  Log.GCSamples.reserve(64);
}

void DragProfiler::onSite(SiteId Id, std::span<const SiteFrame> Frames) {
  // Producers define sites in id order (0, 1, 2, ...), so re-interning in
  // arrival order reproduces their ids; the map tolerates gaps anyway.
  SiteId Local =
      Log.Sites.internFrames(std::vector<SiteFrame>(Frames.begin(),
                                                    Frames.end()));
  if (Id >= SiteMap.size())
    SiteMap.resize(Id + 1, InvalidSite);
  SiteMap[Id] = Local;
}

void DragProfiler::onEvent(const EventRecord &E) {
  switch (E.kind()) {
  case EventKind::Alloc: {
    Trailer &T = Trailers.insert(E.Id);
    T.Class = ir::ClassId(static_cast<std::uint32_t>(E.Arg1));
    T.AKind = static_cast<ir::ArrayKind>(E.Sub);
    T.IsArray = E.Flags & 1;
    T.Bytes = static_cast<std::uint32_t>(E.Arg0);
    T.AllocTime = E.Time;
    T.FirstUseTime = E.Time;
    T.LastUseTime = E.Time; // never-used objects drag from creation
    T.AllocSite = localSite(E.Site);
    T.Excluded = !T.IsArray && Excluded.excludes(T.Class);
    PeakLive = std::max(PeakLive, liveTrailers());
    PeakStateBytes = std::max(PeakStateBytes, Trailers.stateBytes());
    break;
  }
  case EventKind::Use: {
    Trailer *T = Trailers.find(E.Id);
    if (!T)
      break; // VM-internal object (e.g. the preallocated OOM instance)
    bool DuringOwnInit = E.Flags & 1;
    // Paper section 2.1: "assuming that all uses of an object in the
    // interval between consecutive garbage collection cycles are
    // performed at the beginning of the interval."
    ByteTime UseTime =
        Config.SnapUseTimes ? std::max(IntervalStart, T->AllocTime) : E.Time;
    // FirstUseTime anchors the R&R lag phase: the first use *outside*
    // construction (initialization uses belong to the object's birth).
    if (!DuringOwnInit && !T->UsedOutsideInit)
      T->FirstUseTime = std::max(UseTime, T->AllocTime);
    if (UseTime > T->LastUseTime)
      T->LastUseTime = UseTime;
    T->LastUseSite = localSite(E.Site);
    ++T->UseCount;
    if (!DuringOwnInit)
      T->UsedOutsideInit = true;
    break;
  }
  case EventKind::GCEnd:
    Log.GCSamples.push_back({E.Time, E.Arg0, E.Arg1});
    break;
  case EventKind::DeepGCEnd:
    IntervalStart = E.Time;
    break;
  case EventKind::Collect:
  case EventKind::Survivor: {
    Trailer *T = Trailers.find(E.Id);
    if (!T)
      break;
    emitRecord(E.Id, *T, E.Time,
               /*Survived=*/E.kind() == EventKind::Survivor);
    Trailers.erase(E.Id);
    break;
  }
  case EventKind::Terminate:
    Log.EndTime = E.Time;
    break;
  case EventKind::DefineSite:
    break; // delivered via onSite
  }
}

void DragProfiler::emitRecord(ObjectId Id, const Trailer &T, ByteTime Now,
                              bool Survived) {
  if (T.Excluded)
    return;
  ObjectRecord R;
  R.Id = Id;
  R.Class = T.Class;
  R.AKind = T.AKind;
  R.IsArray = T.IsArray;
  R.Bytes = T.Bytes;
  R.AllocTime = T.AllocTime;
  R.FirstUseTime = T.FirstUseTime;
  R.LastUseTime = T.LastUseTime;
  R.CollectTime = Now;
  R.AllocSite = T.AllocSite;
  R.LastUseSite = T.LastUseSite;
  R.UseCount = T.UseCount;
  R.UsedOutsideInit = T.UsedOutsideInit;
  R.SurvivedToEnd = Survived;
  if (RecSink)
    RecSink->onRecord(R);
  else
    Log.Records.push_back(R);
}

bool jdrag::profiler::replayProfile(const std::string &Path,
                                    const ir::Program &P,
                                    ProfilerConfig Config, ProfileLog &Out,
                                    std::string *Err) {
  DragProfiler Prof(P, std::move(Config));
  StreamHeaderInfo Info;
  if (!replayFile(Path, Prof, Err, &Info))
    return false;
  Out = Prof.takeLog();
  // A v5 recording is sampled: stamp the params so analysis scales.
  // Exact logs normalize to {0, 0} -- the seed is meaningless without a
  // rate, and a canonical form keeps exact logs bit-identical no matter
  // which pipeline produced them.
  Out.SampleRate = Info.Sampling.SampleBytes;
  Out.SampleSeed = Info.Sampling.enabled() ? Info.Sampling.SampleSeed : 0;
  Out.Compressed = Info.Compressed;
  return true;
}

bool jdrag::profiler::replayProfileTo(const std::string &Path,
                                      const ir::Program &P,
                                      ProfilerConfig Config, RecordSink &Sink,
                                      ProfileLog &ShellOut, std::string *Err,
                                      std::size_t *PeakTrailers) {
  DragProfiler Prof(P, std::move(Config));
  Prof.setRecordSink(&Sink);
  StreamHeaderInfo Info;
  if (!replayFile(Path, Prof, Err, &Info))
    return false;
  if (PeakTrailers)
    *PeakTrailers = Prof.peakLiveTrailers();
  ShellOut = Prof.takeLog();
  // Same sampling-params stamping as replayProfile: canonical {0, 0}
  // for exact streams so shells compare bit-identical across pipelines.
  ShellOut.SampleRate = Info.Sampling.SampleBytes;
  ShellOut.SampleSeed = Info.Sampling.enabled() ? Info.Sampling.SampleSeed : 0;
  ShellOut.Compressed = Info.Compressed;
  return true;
}
