//===- vm/VirtualMachine.h - VM facade --------------------------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// VirtualMachine bundles heap, statics, natives and interpreter, binds
/// the standard jdrag natives (input/output/native-touch) and runs a
/// program end to end, including the final deep GC and survivor report
/// the paper's instrumented JVM performs at termination (section 2.1.1).
///
/// Programs read their parameters through the `jdrag.readInput` native,
/// so the *same* Program object can be run on multiple inputs -- the
/// paper's Table 3 reruns the rewritten programs on alternate inputs.
/// Results are emitted through `jdrag.emitResult`; tests compare output
/// vectors of original and transformed programs ("we also checked that
/// the original and revised benchmarks produce identical results",
/// section 3.2).
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_VM_VIRTUALMACHINE_H
#define JDRAG_VM_VIRTUALMACHINE_H

#include "profiler/EventStream.h"
#include "vm/Interpreter.h"

#include <memory>
#include <string_view>
#include <unordered_map>

namespace jdrag::profiler {
class AsyncEventSink;
} // namespace jdrag::profiler

namespace jdrag::vm {

class EventEmitter;

/// Upper bound on streamed site nesting: a deeper VMOptions::SiteDepth
/// (e.g. `jdrag report --depth 20`) records this many frames.
inline constexpr std::uint32_t MaxSiteDepth = 8;

/// Options controlling one VM instance.
struct VMOptions {
  /// Deep-GC period (bytes of allocation); 0 disables instrumented GC.
  std::uint64_t DeepGCIntervalBytes = 0;
  /// Live-heap budget (like -Xmx); exceeding it after GC throws OOM.
  std::uint64_t MaxLiveBytes = ~0ull;
  /// Instruction budget for runaway protection.
  std::uint64_t MaxSteps = 1ull << 42;
  /// Sink receiving the binary instrumentation event stream (may be
  /// null). Attach a profiler::DispatchSink for live profiling or a
  /// profiler::FileEventSink to record a `.jdev` file.
  profiler::EventSink *Sink = nullptr;
  /// Nesting depth of streamed event sites (capped by MaxSiteDepth).
  std::uint32_t SiteDepth = 4;
  /// Event-buffer chunk size in bytes; 0 = the default (64 KB).
  std::size_t EventChunkBytes = 0;
  /// Format of the emitted stream. Must be v8, the only format written
  /// (profiler::effectiveFormat); the field stays for
  /// pipebench/driver.cpp, which still sets it.
  profiler::WireFormat EventFormat = profiler::DefaultWireFormat;
  /// Byte interval of size-weighted allocation sampling; 0 = exact
  /// (every allocation instrumented). A recording's header carries the
  /// interval + seed so replay can scale drag estimates back up
  /// (docs/sampling.md).
  std::uint64_t SampleBytes = 0;
  /// PRNG seed of the sampling policy; recordings are deterministic
  /// functions of (program, interval, seed).
  std::uint64_t SampleSeed = profiler::SamplingParams{}.SampleSeed;
  /// Hand flushed chunks to a background writer thread instead of
  /// calling Sink on the interpreter thread (see AsyncEventSink.h).
  /// Only meaningful for sinks that do real I/O -- an attached
  /// DispatchSink must stay synchronous and single-threaded.
  bool AsyncEvents = false;
  /// Queue depth (chunks) of the async writer. 0 = default (16).
  std::size_t AsyncQueueChunks = 0;
  /// Under async, shed chunks instead of blocking when the queue is
  /// full (bounded overhead; losses are accounted in streamHealth()).
  bool AsyncDropOnFull = false;
  /// Two-generation runtime collection policy (off by default; the
  /// profiler's deep GCs are always full collections regardless).
  GenerationalConfig Generational;
};

/// One executable VM instance over a verified Program.
class VirtualMachine {
public:
  explicit VirtualMachine(const ir::Program &P, VMOptions Opts = VMOptions());
  ~VirtualMachine();
  VirtualMachine(const VirtualMachine &) = delete;
  VirtualMachine &operator=(const VirtualMachine &) = delete;

  /// Binds (or rebinds) a native implementation by declared name. Must
  /// be called before run().
  void bindNative(std::string_view Name, NativeFn Fn);

  /// Program inputs served by the `jdrag.readInput` native.
  void setInputs(std::vector<std::int64_t> In) { Inputs = std::move(In); }

  /// Values the program emitted via `jdrag.emitResult[D]`.
  const std::vector<std::int64_t> &outputs() const { return Outputs; }

  /// Runs main to completion, then the final deep GC, then emits the
  /// survivor and termination events.
  Interpreter::Status run(std::string *Err = nullptr);

  Heap &heap() { return TheHeap; }
  const ir::Program &program() const { return P; }
  Interpreter &interpreter() { return *Interp; }

  /// Reads a static field (test helper).
  Value staticValue(ir::FieldId F) const;

  /// Delivery accounting for the run's event stream. A failing sink no
  /// longer traps the program -- the run completes, drops are counted
  /// here, and callers decide whether an incomplete recording matters.
  const profiler::StreamHealth &streamHealth() const { return Health; }
  /// True when every emitted chunk reached the sink (or no sink was
  /// attached at all).
  bool streamIntact() const { return Health.intact(); }

private:
  class StaticArea : public RootSource {
  public:
    std::vector<Value> Values;
    void visitRoots(HandleVisitor Visit) override {
      for (const Value &V : Values)
        if (V.Kind == ir::ValueKind::Ref)
          Visit(V.asRef());
    }
  };

  void bindStandardNatives();

  const ir::Program &P;
  VMOptions Opts;
  Heap TheHeap;
  StaticArea Statics;
  std::unordered_map<std::string, NativeFn> Bound;
  /// Declared before Emitter: the emitter's buffer references this sink,
  /// so it must be destroyed after the emitter.
  std::unique_ptr<profiler::AsyncEventSink> Async;
  std::unique_ptr<EventEmitter> Emitter;
  std::unique_ptr<Interpreter> Interp;
  std::vector<std::int64_t> Inputs;
  std::vector<std::int64_t> Outputs;
  std::size_t NextInput = 0;
  profiler::StreamHealth Health;
  bool Ran = false;
};

} // namespace jdrag::vm

#endif // JDRAG_VM_VIRTUALMACHINE_H
