//===- profiler/DragProfiler.h - Phase-1 instrumentation --------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DragProfiler implements the paper's instrumented-JVM phase as an
/// *event-stream consumer*. The VM keeps each object's trailer on the
/// object's handle-side record (so the heap's byte accounting excludes
/// it, exactly as the paper specifies) and writes it once, finished, in
/// the object's Collect or Survivor record. The profiler turns each such
/// record into the object's logged record with no table lookup: it
/// takes the first and last use times, or -- the paper's "all uses ...
/// are performed at the beginning of the interval" assumption, the
/// default -- the deep-GC boundary in force at each, and maps the
/// nested allocation and last-use sites to the log's site ids.
///
/// Because its only input is the binary event stream, the same profiler
/// runs in two modes:
///
///  - attached (live): attachTo() installs its dispatch sink in the
///    VMOptions and it consumes events as the VM flushes them;
///  - detached: replayProfile() (or profiler::replayFile with the
///    profiler as consumer) rebuilds an identical ProfileLog from a
///    recorded `.jdev` file, with no VM at all -- the paper's genuinely
///    separable phase 2.
///
/// Usage (attached):
/// \code
///   DragProfiler Prof(Program, ProfilerConfig());
///   VMOptions Opts;
///   Opts.DeepGCIntervalBytes = 100 * KB; // the paper's interval
///   Prof.attachTo(Opts);
///   VirtualMachine VM(Program, Opts);
///   VM.run();
///   const ProfileLog &Log = Prof.log();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_PROFILER_DRAGPROFILER_H
#define JDRAG_PROFILER_DRAGPROFILER_H

#include "profiler/EventStream.h"
#include "profiler/ProfileLog.h"
#include "vm/VirtualMachine.h"

namespace jdrag::profiler {

/// Tuning knobs for phase 1.
struct ProfilerConfig {
  /// Nesting level of recorded call chains ("the level of nesting can be
  /// set in order to tradeoff more accurate information and speed").
  /// Enforced by the VM-side emitter; attachTo() wires it through.
  std::uint32_t SiteDepth = 4;
  /// Snap use timestamps to the last deep-GC boundary (paper behaviour).
  /// Disable for exact timestamps (ablation).
  bool SnapUseTimes = true;
  /// Classes whose instances are excluded from the log, mirroring the
  /// paper's exclusion of Class objects and class-reachable specials.
  std::vector<ir::ClassId> ExcludedClasses;
};

/// ProfilerConfig::ExcludedClasses as a flat per-class-index lookup,
/// built once and probed on every record. A class index past the end --
/// including any a hostile stream invents -- is not excluded; an invalid
/// ClassId in the config excludes nothing.
class ClassExclusion {
public:
  explicit ClassExclusion(const std::vector<ir::ClassId> &Classes) {
    for (ir::ClassId C : Classes) {
      if (!C.isValid())
        continue;
      if (C.Index >= Mask.size())
        Mask.resize(C.Index + 1, 0);
      Mask[C.Index] = 1;
    }
  }
  bool excludes(ir::ClassId C) const {
    return C.Index < Mask.size() && Mask[C.Index];
  }

private:
  std::vector<std::uint8_t> Mask;
};

/// The record rule: how a Collect/Survivor record's trailer becomes the
/// object's logged record. DragProfiler applies it to the whole stream
/// and every shard of the sharded replay (profiler/ParallelReplay.h) to
/// its chunk range, so an object's record is built here and nowhere
/// else. The record's site ids stay the stream's: the profiler maps them
/// to log-local ids, a shard keeps them.
class RecordRule {
public:
  explicit RecordRule(const ProfilerConfig &Config)
      : Excluded(Config.ExcludedClasses), Snap(Config.SnapUseTimes) {}

  /// Builds the record of the Collect/Survivor \p E into \p R. Returns
  /// false, building nothing, for an instance of an excluded class.
  bool build(const EventRecord &E, ObjectRecord &R) const {
    bool IsArray = E.Flags & RecordIsArray;
    ir::ClassId Class(static_cast<std::uint32_t>(E.Arg1));
    if (!IsArray && Excluded.excludes(Class))
      return false;
    R.Id = E.Id;
    R.Class = Class;
    R.AKind = static_cast<ir::ArrayKind>(E.Sub);
    R.IsArray = IsArray;
    R.Bytes = static_cast<std::uint32_t>(E.Arg0);
    R.AllocTime = E.AllocTime;
    // Paper section 2.1: "assuming that all uses of an object in the
    // interval between consecutive garbage collection cycles are
    // performed at the beginning of the interval." A snapped use is
    // never before the object's birth, and a use the record lacks
    // reads as the alloc time: never-used objects drag from creation.
    // FirstUseTime anchors the R&R lag phase: the first use *outside*
    // construction (initialization uses belong to the object's birth).
    R.FirstUseTime =
        std::max(E.AllocTime, Snap ? E.FirstUseBoundary : E.FirstUseTime);
    R.LastUseTime =
        std::max(E.AllocTime, Snap ? E.LastUseBoundary : E.LastUseTime);
    R.CollectTime = E.Time;
    R.AllocSite = E.Site;
    R.LastUseSite = E.LastUseSite;
    R.UseCount = E.UseCount;
    R.UsedOutsideInit = E.Flags & RecordUsedOutsideInit;
    R.SurvivedToEnd = E.kind() == EventKind::Survivor;
    return true;
  }

private:
  ClassExclusion Excluded;
  bool Snap;
};

/// Receives finished object records as the profiler emits them, instead
/// of having them appended to ProfileLog::Records. The streaming
/// analysis engine (analysis/StreamingAnalysis.h) registers one so
/// phase 2 runs in O(live sites) memory: records are folded the moment
/// the object dies and never stored.
class RecordSink {
public:
  virtual ~RecordSink() = default;
  virtual void onRecord(const ObjectRecord &R) = 0;
};

/// The phase-1 profiler. Attach to a VirtualMachine (attachTo) or replay
/// a recorded stream over it, then take the log. It is final and its
/// onEvent is inline, so the record loop instantiated for it (see
/// RecordTarget) runs the record rule inside the decode.
class DragProfiler final : public EventConsumer {
public:
  explicit DragProfiler(const ir::Program &P,
                        ProfilerConfig Config = ProfilerConfig());

  /// Configures \p Opts for live profiling: installs this profiler's
  /// dispatch sink and its site depth -- set the sampling knobs (if
  /// non-default) *before* calling this. Active sampling stamps the
  /// params into the log so reports scale estimates.
  void attachTo(vm::VMOptions &Opts) {
    Opts.Sink = &Sink;
    Opts.SiteDepth = Config.SiteDepth;
    SamplingParams S;
    S.SampleBytes = Opts.SampleBytes;
    S.SampleSeed = Opts.SampleSeed;
    Log.SampleRate = S.SampleBytes;
    // Exact logs keep the canonical {0, 0}: the seed means nothing
    // without a rate, and exact logs must be bit-identical whether the
    // profiler ran attached, detached, or was fed a raw stream.
    Log.SampleSeed = S.enabled() ? S.SampleSeed : 0;
  }

  /// The sink feeding this profiler (for manual wiring, e.g. a TeeSink
  /// that both records to file and profiles live).
  EventSink &sink() { return Sink; }

  // EventConsumer: decoded stream input. onEvent is forced inline so
  // it runs inside the record loop (profiler/RecordLoop.h).
  void onSite(SiteId Id, std::span<const SiteFrame> Frames) override;
  const ir::Program *siteProgram() const override { return &P; }
  [[gnu::always_inline]] void onEvent(const EventRecord &E) override {
    switch (E.kind()) {
    case EventKind::GCEnd:
      Log.GCSamples.push_back({E.Time, E.Arg0, E.Arg1});
      break;
    case EventKind::Collect:
    case EventKind::Survivor: {
      ObjectRecord R;
      if (Rule.build(E, R)) {
        R.AllocSite = localSite(R.AllocSite);
        R.LastUseSite = localSite(R.LastUseSite);
        emitRecord(R);
      }
      break;
    }
    case EventKind::Terminate:
      Log.EndTime = E.Time;
      break;
    case EventKind::Alloc:      // legacy only; LegacyStream folds them
    case EventKind::Use:        // into the Collect/Survivor records
    case EventKind::DeepGCEnd:  // each record carries its boundaries
    case EventKind::DefineSite: // delivered via onSite
      break;
    }
  }

  const ProfileLog &log() const { return Log; }
  ProfileLog takeLog() { return std::move(Log); }

  /// Stamps the recording's delivery accounting into the log. Call after
  /// the run with the VM's streamHealth(); a lossy stream marks the log
  /// incomplete so every report over it carries the warning.
  void noteStreamHealth(const StreamHealth &H) {
    Log.Complete = H.intact();
    Log.DroppedChunks = H.ChunksDropped;
    Log.DroppedBytes = H.BytesDropped;
    Log.Retries = H.Retries;
    Log.LastErrno = H.LastErrno;
  }

  /// Live trailers the profiler held at once: none, since every record
  /// arrives finished. Kept for pipebench/driver.cpp, which reports it.
  std::size_t peakLiveTrailers() const { return 0; }

  /// Diverts finished records to \p S; the log keeps everything else
  /// (sites, GC samples, end time, health) and Log.Records stays empty.
  /// Pass nullptr to restore the default materializing behaviour.
  void setRecordSink(RecordSink *S) { RecSink = S; }

private:
  void emitRecord(const ObjectRecord &R) {
    if (RecSink)
      RecSink->onRecord(R);
    else
      Log.Records.push_back(R);
  }
  SiteId localSite(SiteId StreamId) const {
    return StreamId < SiteMap.size() ? SiteMap[StreamId] : InvalidSite;
  }

  const ir::Program &P;
  ProfilerConfig Config;
  ProfileLog Log;
  DispatchSink Sink{*this};
  /// Stream site id -> id in Log.Sites. Stream ids are dense and arrive
  /// in order, so in practice this is the identity map.
  std::vector<SiteId> SiteMap;
  RecordRule Rule;
  RecordSink *RecSink = nullptr;
};

/// Detached phase 2: replays the `.jdev` recording at \p Path through a
/// fresh DragProfiler and moves its log into \p Out. Returns false and
/// sets \p Err on a malformed or truncated recording.
bool replayProfile(const std::string &Path, const ir::Program &P,
                   ProfilerConfig Config, ProfileLog &Out,
                   std::string *Err = nullptr);

/// Streaming phase 2: replays the recording at \p Path, delivering every
/// finished record to \p Sink instead of materializing it. \p ShellOut
/// receives the record-free log shell (sites, GC samples, end time,
/// sampling params) -- everything a report needs except Records, which
/// stays empty.
bool replayProfileTo(const std::string &Path, const ir::Program &P,
                     ProfilerConfig Config, RecordSink &Sink,
                     ProfileLog &ShellOut, std::string *Err = nullptr);

} // namespace jdrag::profiler

#endif // JDRAG_PROFILER_DRAGPROFILER_H
