//===- profiler/DragProfiler.h - Phase-1 instrumentation --------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DragProfiler implements the paper's instrumented-JVM phase as an
/// *event-stream consumer*: it keeps a trailer per live object (in a side
/// table keyed by immortal object id -- profiler/ObjectTable.h, sized by
/// the live objects rather than the id space -- so the heap's byte
/// accounting excludes the trailer exactly as the paper specifies),
/// timestamps every use on the byte clock (optionally snapped to the
/// start of the current deep-GC interval, mirroring the paper's "all
/// uses ... are performed at the beginning of the interval" assumption),
/// records nested allocation and last-use sites, and logs a record when
/// the object is reclaimed or survives termination.
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
#include "profiler/ObjectTable.h"
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
/// built once and probed on every Alloc. A class index past the end --
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

/// One object's trailer: the paper's per-object side record of its
/// creation, first and last use and sites, updated on every use and
/// logged when the object is reclaimed.
struct Trailer {
  ir::ClassId Class;
  ir::ArrayKind AKind = ir::ArrayKind::Int;
  bool IsArray = false;
  std::uint32_t Bytes = 0;
  ByteTime AllocTime = 0;
  ByteTime FirstUseTime = 0;
  ByteTime LastUseTime = 0;
  SiteId AllocSite = InvalidSite;
  SiteId LastUseSite = InvalidSite;
  std::uint32_t UseCount = 0;
  bool UsedOutsideInit = false;
  bool Excluded = false;
};

/// The trailer rules: the live objects' trailers plus the deep-GC
/// boundary their use times snap to. DragProfiler runs them over the
/// whole stream and every shard of the sharded replay
/// (profiler/ParallelReplay.h) runs them over its chunk range, so an
/// object's record is built here and nowhere else. Callers pass site
/// ids already resolved: the profiler maps them to log-local ids, a
/// shard keeps stream ids.
class TrailerTable {
public:
  explicit TrailerTable(const ProfilerConfig &Config)
      : Excluded(Config.ExcludedClasses), Snap(Config.SnapUseTimes) {}

  /// Alloc: starts the object's trailer, replacing any live one.
  void alloc(const EventRecord &E, SiteId Site) {
    Trailer &T = Live.insert(E.Id);
    T.Class = ir::ClassId(static_cast<std::uint32_t>(E.Arg1));
    T.AKind = static_cast<ir::ArrayKind>(E.Sub);
    T.IsArray = E.Flags & 1;
    T.Bytes = static_cast<std::uint32_t>(E.Arg0);
    T.AllocTime = E.Time;
    T.FirstUseTime = E.Time;
    T.LastUseTime = E.Time; // never-used objects drag from creation
    T.AllocSite = Site;
    T.Excluded = !T.IsArray && Excluded.excludes(T.Class);
  }

  /// Use: updates the object's trailer. Returns false, changing
  /// nothing, when the id has no live trailer (a VM-internal object such
  /// as the preallocated OOM instance, or one ended already).
  bool use(const EventRecord &E, SiteId Site) {
    Trailer *T = Live.find(E.Id);
    if (!T)
      return false;
    bool DuringOwnInit = E.Flags & 1;
    // Paper section 2.1: "assuming that all uses of an object in the
    // interval between consecutive garbage collection cycles are
    // performed at the beginning of the interval."
    ByteTime UseTime = Snap ? std::max(IntervalStart, T->AllocTime) : E.Time;
    // FirstUseTime anchors the R&R lag phase: the first use *outside*
    // construction (initialization uses belong to the object's birth).
    if (!DuringOwnInit && !T->UsedOutsideInit)
      T->FirstUseTime = std::max(UseTime, T->AllocTime);
    if (UseTime > T->LastUseTime)
      T->LastUseTime = UseTime;
    T->LastUseSite = Site;
    ++T->UseCount;
    if (!DuringOwnInit)
      T->UsedOutsideInit = true;
    return true;
  }

  /// DeepGCEnd: later uses snap to \p Time.
  void deepGC(ByteTime Time) { IntervalStart = Time; }

  /// Collect/Survivor at \p Now: erases the object's trailer and hands
  /// its finished record to \p Emit, unless its class is excluded.
  /// Returns false, changing nothing, when the id has no live trailer.
  template <typename EmitFn>
  bool end(vm::ObjectId Id, ByteTime Now, bool Survived, EmitFn &&Emit) {
    Trailer *T = Live.find(Id);
    if (!T)
      return false;
    if (!T->Excluded) {
      ObjectRecord R;
      R.Id = Id;
      R.Class = T->Class;
      R.AKind = T->AKind;
      R.IsArray = T->IsArray;
      R.Bytes = T->Bytes;
      R.AllocTime = T->AllocTime;
      R.FirstUseTime = T->FirstUseTime;
      R.LastUseTime = T->LastUseTime;
      R.CollectTime = Now;
      R.AllocSite = T->AllocSite;
      R.LastUseSite = T->LastUseSite;
      R.UseCount = T->UseCount;
      R.UsedOutsideInit = T->UsedOutsideInit;
      R.SurvivedToEnd = Survived;
      Emit(R);
    }
    Live.erase(Id);
    return true;
  }

  /// The live trailers, by object id.
  ObjectTable<Trailer> &live() { return Live; }
  const ObjectTable<Trailer> &live() const { return Live; }

private:
  ObjectTable<Trailer> Live;
  ClassExclusion Excluded;
  ByteTime IntervalStart = 0; ///< last deep-GC boundary on the byte clock
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
/// RecordTarget) runs the trailer rules inside the decode.
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
    case EventKind::Alloc:
      Trailers.alloc(E, localSite(E.Site));
      PeakLive = std::max(PeakLive, liveTrailers());
      PeakStateBytes = std::max(PeakStateBytes, Trailers.live().stateBytes());
      break;
    case EventKind::Use:
      Trailers.use(E, localSite(E.Site));
      break;
    case EventKind::GCEnd:
      Log.GCSamples.push_back({E.Time, E.Arg0, E.Arg1});
      break;
    case EventKind::DeepGCEnd:
      Trailers.deepGC(E.Time);
      break;
    case EventKind::Collect:
    case EventKind::Survivor:
      Trailers.end(E.Id, E.Time, /*Survived=*/E.kind() == EventKind::Survivor,
                   [this](const ObjectRecord &R) { emitRecord(R); });
      break;
    case EventKind::Terminate:
      Log.EndTime = E.Time;
      break;
    case EventKind::DefineSite:
      break; // delivered via onSite
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

  /// Live (not yet logged) object count -- should be 0 after a run.
  std::size_t liveTrailers() const { return Trailers.live().size(); }

  /// High-water mark of liveTrailers() over the run: the O(live objects)
  /// part of the streaming engine's resident state (BENCH_9).
  std::size_t peakLiveTrailers() const { return PeakLive; }

  /// High-water mark of the trailer table's resident bytes
  /// (ObjectTable::stateBytes) over the run.
  std::size_t peakTrailerStateBytes() const { return PeakStateBytes; }

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
  TrailerTable Trailers;
  RecordSink *RecSink = nullptr;
  std::size_t PeakLive = 0;
  std::size_t PeakStateBytes = 0;
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
/// stays empty. \p PeakTrailers (optional) receives the trailer-table
/// high-water mark.
bool replayProfileTo(const std::string &Path, const ir::Program &P,
                     ProfilerConfig Config, RecordSink &Sink,
                     ProfileLog &ShellOut, std::string *Err = nullptr,
                     std::size_t *PeakTrailers = nullptr);

} // namespace jdrag::profiler

#endif // JDRAG_PROFILER_DRAGPROFILER_H
