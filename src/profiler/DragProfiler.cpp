//===- profiler/DragProfiler.cpp ------------------------------------------===//

#include "profiler/DragProfiler.h"

using namespace jdrag;
using namespace jdrag::profiler;
using namespace jdrag::vm;

DragProfiler::DragProfiler(const ir::Program &P, ProfilerConfig Config)
    : P(P), Config(std::move(Config)), Rule(this->Config) {
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
                                      ProfileLog &ShellOut,
                                      std::string *Err) {
  DragProfiler Prof(P, std::move(Config));
  Prof.setRecordSink(&Sink);
  StreamHeaderInfo Info;
  if (!replayFile(Path, Prof, Err, &Info))
    return false;
  ShellOut = Prof.takeLog();
  // Same sampling-params stamping as replayProfile: canonical {0, 0}
  // for exact streams so shells compare bit-identical across pipelines.
  ShellOut.SampleRate = Info.Sampling.SampleBytes;
  ShellOut.SampleSeed = Info.Sampling.enabled() ? Info.Sampling.SampleSeed : 0;
  ShellOut.Compressed = Info.Compressed;
  return true;
}
