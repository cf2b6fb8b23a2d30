//===- bench/micro_profiler.cpp - google-benchmark micro suite ------------===//
//
// Microbenchmarks of the substrate: interpreter throughput with and
// without the drag profiler attached (the instrumentation overhead the
// paper's tool pays), GC cost against live-set size, site-table
// interning, and profile-log serialization throughput.
//
//===----------------------------------------------------------------------===//

#include "analysis/RecordFold.h"
#include "analysis/StreamingAnalysis.h"
#include "benchmarks/Benchmarks.h"
#include "benchmarks/MiniJDK.h"
#include "ir/Verifier.h"
#include "profiler/AsyncEventSink.h"
#include "profiler/DragProfiler.h"
#include "support/Crc32c.h"
#include "support/Lz.h"
#include "vm/VirtualMachine.h"

#include <benchmark/benchmark.h>

#include <algorithm>

#include <cstdio>
#include <unistd.h>

using namespace jdrag;
using namespace jdrag::benchmarks;
using namespace jdrag::ir;
using namespace jdrag::vm;

namespace {

/// A compute+alloc loop: `iters` iterations of field writes, array ops
/// and one small allocation.
Program buildHotLoop() {
  ProgramBuilder PB;
  MiniJDK J = MiniJDK::build(PB);
  ClassBuilder C = PB.beginClass("Hot", PB.objectClass());
  FieldId V = C.addField("v", ValueKind::Int);
  MethodBuilder Ctor = C.beginMethod("<init>", {}, ValueKind::Void);
  Ctor.aload(0).invokespecial(PB.objectCtor()).ret();
  Ctor.finish();

  ClassBuilder MainC = PB.beginClass("Main", PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t N = M.newLocal(ValueKind::Int);
  std::uint32_t I = M.newLocal(ValueKind::Int);
  std::uint32_t O = M.newLocal(ValueKind::Ref);
  M.iconst(0).invokestatic(J.Read).istore(N);
  M.new_(C.id()).dup().invokespecial(Ctor.id()).astore(O);
  Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(0).istore(I);
  M.bind(Loop);
  M.iload(I).iload(N).ifICmpGe(Done);
  M.aload(O).iload(I).putfield(V);          // use event
  M.aload(O).getfield(V).pop();             // use event
  M.iconst(14).newarray(ArrayKind::Int).pop(); // allocation event
  M.iload(I).iconst(1).iadd().istore(I);
  M.goto_(Loop);
  M.bind(Done);
  M.aload(O).getfield(V).invokestatic(J.Emit);
  M.ret();
  M.finish();
  PB.setMain(M.id());
  Program P = PB.finish();
  std::string Err;
  if (!verifyProgram(P, &Err))
    std::abort();
  return P;
}

void BM_InterpreterPlain(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  for (auto _ : State) {
    VirtualMachine VM(P, {});
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok)
      std::abort();
    benchmark::DoNotOptimize(VM.outputs());
  }
  State.SetItemsProcessed(State.iterations() * Iters);
}
BENCHMARK(BM_InterpreterPlain)->Arg(10000);

/// A call loop: each of `iters` iterations makes one static call with
/// two arguments and one virtual call with a receiver and an argument,
/// and does almost nothing else, so the time is invoke + frame push +
/// return.
Program buildCallLoop() {
  ProgramBuilder PB;
  MiniJDK J = MiniJDK::build(PB);
  ClassBuilder C = PB.beginClass("Acc", PB.objectClass());
  FieldId V = C.addField("v", ValueKind::Int);
  MethodBuilder Add = C.beginMethod("add", {ValueKind::Int}, ValueKind::Int);
  Add.aload(0).getfield(V).iload(1).iadd().iret();
  Add.finish();

  ClassBuilder MainC = PB.beginClass("Main", PB.objectClass());
  MethodBuilder Mix = MainC.beginMethod("mix", {ValueKind::Int, ValueKind::Int},
                                        ValueKind::Int, true);
  std::uint32_t T = Mix.newLocal(ValueKind::Int);
  Mix.iload(0).iload(1).ixor_().istore(T);
  Mix.iload(T).iret();
  Mix.finish();
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t N = M.newLocal(ValueKind::Int);
  std::uint32_t I = M.newLocal(ValueKind::Int);
  std::uint32_t S = M.newLocal(ValueKind::Int);
  std::uint32_t O = M.newLocal(ValueKind::Ref);
  M.iconst(0).invokestatic(J.Read).istore(N);
  M.new_(C.id()).dup().invokespecial(PB.objectCtor()).astore(O);
  M.aload(O).iconst(7).putfield(V);
  Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(0).istore(I).iconst(0).istore(S);
  M.bind(Loop);
  M.iload(I).iload(N).ifICmpGe(Done);
  M.iload(S).iload(I).invokestatic(Mix.id());
  M.aload(O).swap().invokevirtual(Add.id()).istore(S);
  M.iload(I).iconst(1).iadd().istore(I);
  M.goto_(Loop);
  M.bind(Done);
  M.iload(S).invokestatic(J.Emit);
  M.ret();
  M.finish();
  PB.setMain(M.id());
  Program P = PB.finish();
  std::string Err;
  if (!verifyProgram(P, &Err))
    std::abort();
  return P;
}

/// The interpreter's call path alone: plain execution of the call loop.
/// Items are calls (two per iteration).
void BM_InterpreterCalls(benchmark::State &State) {
  Program P = buildCallLoop();
  std::int64_t Iters = State.range(0);
  for (auto _ : State) {
    VirtualMachine VM(P, {});
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok)
      std::abort();
    benchmark::DoNotOptimize(VM.outputs());
  }
  State.SetItemsProcessed(State.iterations() * 2 * Iters);
}
BENCHMARK(BM_InterpreterCalls)->Arg(100000);

/// Instrumentation-overhead ladder, step 2 of 3: the VM emits, encodes and
/// chunks every event but the sink discards the bytes -- isolating the
/// pure event-production cost from the consumer (compare against
/// BM_InterpreterPlain below it and BM_InterpreterProfiled above it).
void BM_InterpreterNullSink(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  for (auto _ : State) {
    profiler::NullSink Sink;
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok)
      std::abort();
    benchmark::DoNotOptimize(Sink.bytesDiscarded());
  }
  State.SetItemsProcessed(State.iterations() * Iters);
}
BENCHMARK(BM_InterpreterNullSink)->Arg(10000);

/// The allocator in isolation: rounds of short-lived allocations with a
/// collection between rounds, so span records (and their Slots
/// capacity) actually recycle.
void BM_HeapAllocRecycle(benchmark::State &State) {
  ProgramBuilder PB;
  MiniJDK J = MiniJDK::build(PB);
  (void)J;
  ClassBuilder Node = PB.beginClass("Node", PB.objectClass());
  Node.addField("next", ValueKind::Ref);
  ClassBuilder MainC = PB.beginClass("Main", PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.ret();
  M.finish();
  PB.setMain(M.id());
  Program P = PB.finish();
  std::string Err;
  if (!verifyProgram(P, &Err))
    std::abort();

  Heap H(P);
  ClassId NodeClass = P.findClass("Node");
  constexpr std::int64_t Round = 4096;
  std::int64_t Allocs = 0;
  for (auto _ : State) {
    for (std::int64_t I = 0; I != Round; ++I)
      benchmark::DoNotOptimize(H.allocateObject(NodeClass));
    Allocs += Round;
    GCStats S = H.collect(); // everything is garbage; records recycle
    benchmark::DoNotOptimize(S.FreedObjects);
  }
  State.SetItemsProcessed(Allocs);
}
BENCHMARK(BM_HeapAllocRecycle);

/// The background-writer hand-off cost: same null-sink run, but every
/// flushed chunk takes the AsyncEventSink path (copy + mutex + condvar)
/// before the writer thread discards it. The delta against
/// BM_InterpreterNullSink is the queueing overhead the async sink adds
/// when the inner sink is infinitely fast; against a real file sink the
/// same hand-off *replaces* the file write on the VM thread.
void BM_InterpreterNullSinkAsync(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  for (auto _ : State) {
    profiler::NullSink Sink;
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.AsyncEvents = true;
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok)
      std::abort();
    benchmark::DoNotOptimize(Sink.bytesDiscarded());
  }
  State.SetItemsProcessed(State.iterations() * Iters);
}
BENCHMARK(BM_InterpreterNullSinkAsync)->Arg(10000);

void BM_InterpreterProfiled(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  for (auto _ : State) {
    profiler::DragProfiler Prof(P);
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Prof.attachTo(Opts);
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok)
      std::abort();
    benchmark::DoNotOptimize(Prof.log().Records.size());
  }
  State.SetItemsProcessed(State.iterations() * Iters);
}
BENCHMARK(BM_InterpreterProfiled)->Arg(10000);

/// Sampled-recording overhead ladder: the full record-to-file path
/// (emit, sample, encode, chunk, write) at a sweep of sampling rates.
/// Arg0 is the loop count, Arg1 the --sample-bytes rate: 0 is exact
/// mode (every allocation gets Use/Collect trailers -- the exact stream,
/// bit-identical to a plain recording), then 64Ki / 512Ki / 4Mi mean
/// heap bytes per sample. The delta against BM_InterpreterPlain is the
/// always-on overhead each rate pays; unsampled allocations take only
/// the countdown decrement, so throughput should climb toward plain as
/// the rate coarsens.
void BM_SampledRecord(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  std::uint64_t Rate = static_cast<std::uint64_t>(State.range(1));
  char Path[64];
  std::snprintf(Path, sizeof(Path), "/tmp/jdrag_bench_samp.%d.jdev",
                static_cast<int>(getpid()));
  std::uint64_t BytesOut = 0;
  for (auto _ : State) {
    profiler::SamplingParams SP;
    SP.SampleBytes = Rate;
    profiler::FileEventSink::Options FO;
    FO.Sampling = SP;
    profiler::FileEventSink Sink;
    if (!Sink.open(Path, FO))
      std::abort();
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.SampleBytes = Rate;
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok || !VM.streamIntact())
      std::abort();
    if (!Sink.finish())
      std::abort();
    BytesOut = Sink.bytesWritten();
    benchmark::DoNotOptimize(BytesOut);
  }
  State.SetItemsProcessed(State.iterations() * Iters);
  State.counters["stream_bytes"] =
      benchmark::Counter(static_cast<double>(BytesOut));
  std::remove(Path);
}
BENCHMARK(BM_SampledRecord)
    ->Args({10000, 0})
    ->Args({10000, 64 * 1024})
    ->Args({10000, 512 * 1024})
    ->Args({10000, 4 * 1024 * 1024});

/// The BM_SampledRecord ladder with chunk compression on -- the
/// paired rung behind the `--compress` default. Same args (Arg1 = 0 is
/// exact mode); the time delta against BM_SampledRecord at the same
/// args is the whole cost of compressing on the file sink, and the
/// stream_bytes / ratio counters are what it buys. The acceptance
/// gates: exact-mode time within 1.05x of the uncompressed rung,
/// recording size down >= 3x on the paper workloads (table1 measures
/// those; this rung tracks the synthetic hot loop).
void BM_CompressedRecord(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  std::uint64_t Rate = static_cast<std::uint64_t>(State.range(1));
  char Path[64];
  std::snprintf(Path, sizeof(Path), "/tmp/jdrag_bench_comp.%d.jdev",
                static_cast<int>(getpid()));
  std::uint64_t BytesOut = 0, Raw = 0, Wire = 0;
  for (auto _ : State) {
    profiler::SamplingParams SP;
    SP.SampleBytes = Rate;
    profiler::FileEventSink::Options FO;
    FO.Sampling = SP;
    FO.Compress = true;
    profiler::FileEventSink Sink;
    if (!Sink.open(Path, FO))
      std::abort();
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.SampleBytes = Rate;
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok || !VM.streamIntact())
      std::abort();
    if (!Sink.finish())
      std::abort();
    BytesOut = Sink.bytesWritten();
    Raw = Sink.rawPayloadBytes();
    Wire = Sink.wirePayloadBytes();
    benchmark::DoNotOptimize(BytesOut);
  }
  State.SetItemsProcessed(State.iterations() * Iters);
  State.counters["stream_bytes"] =
      benchmark::Counter(static_cast<double>(BytesOut));
  State.counters["ratio"] = benchmark::Counter(
      Wire ? static_cast<double>(Raw) / static_cast<double>(Wire) : 1.0);
  std::remove(Path);
}
BENCHMARK(BM_CompressedRecord)
    ->Args({10000, 0})
    ->Args({10000, 64 * 1024})
    ->Args({10000, 512 * 1024})
    ->Args({10000, 4 * 1024 * 1024});

/// The async paired rungs: `jdrag record --async` hands chunks to the
/// AsyncEventSink writer thread, so the file sink's compression (like
/// its fwrite) runs off the VM's critical path -- the deployment the
/// compressor is designed for. CPU time here is the VM thread only
/// (google-benchmark measures the bench thread), so the delta between
/// the two rungs is what compression costs the *mutator* when the
/// writer thread absorbs the codec work; the wall-clock delta still
/// includes the drain wait at finish() on a saturated machine. Arg1 = 0
/// keeps both rungs in exact mode.
void BM_AsyncRecord(benchmark::State &State, bool Compress) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  std::uint64_t Rate = static_cast<std::uint64_t>(State.range(1));
  char Path[64];
  std::snprintf(Path, sizeof(Path), "/tmp/jdrag_bench_async.%d.jdev",
                static_cast<int>(getpid()));
  std::uint64_t BytesOut = 0, Raw = 0, Wire = 0;
  for (auto _ : State) {
    profiler::SamplingParams SP;
    SP.SampleBytes = Rate;
    profiler::FileEventSink::Options FO;
    FO.Sampling = SP;
    FO.Compress = Compress;
    profiler::FileEventSink Sink;
    if (!Sink.open(Path, FO))
      std::abort();
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.SampleBytes = Rate;
    Opts.AsyncEvents = true;
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok || !VM.streamIntact())
      std::abort();
    if (!Sink.finish())
      std::abort();
    BytesOut = Sink.bytesWritten();
    Raw = Sink.rawPayloadBytes();
    Wire = Sink.wirePayloadBytes();
    benchmark::DoNotOptimize(BytesOut);
  }
  State.SetItemsProcessed(State.iterations() * Iters);
  State.counters["stream_bytes"] =
      benchmark::Counter(static_cast<double>(BytesOut));
  if (Compress)
    State.counters["ratio"] = benchmark::Counter(
        Wire ? static_cast<double>(Raw) / static_cast<double>(Wire) : 1.0);
  std::remove(Path);
}
void BM_SampledRecordAsync(benchmark::State &State) {
  BM_AsyncRecord(State, false);
}
void BM_CompressedRecordAsync(benchmark::State &State) {
  BM_AsyncRecord(State, true);
}
BENCHMARK(BM_SampledRecordAsync)->Args({10000, 0});
BENCHMARK(BM_CompressedRecordAsync)->Args({10000, 0});

/// Shared scaffolding for the GC benches: a program with a linked Node
/// class, and a one-handle root pin.
Program buildNodeGCProgram() {
  ProgramBuilder PB;
  MiniJDK J = MiniJDK::build(PB);
  (void)J;
  ClassBuilder Node = PB.beginClass("Node", PB.objectClass());
  FieldId Next = Node.addField("next", ValueKind::Ref);
  (void)Next;
  ClassBuilder MainC = PB.beginClass("Main", PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.ret();
  M.finish();
  PB.setMain(M.id());
  Program P = PB.finish();
  std::string Err;
  if (!verifyProgram(P, &Err))
    std::abort();
  return P;
}

class HeadPin : public RootSource {
public:
  Handle Head;
  void visitRoots(HandleVisitor V) override { V(Head); }
};

/// GC cost against live-set size: a linked list of `n` nodes survives
/// each collection. range(0) = list length.
void BM_MarkSweepGC(benchmark::State &State) {
  Program P = buildNodeGCProgram();
  Heap H(P);
  HeadPin Roots;
  H.addRootSource(&Roots);
  FieldId Next = P.findField(P.findClass("Node"), "next");
  std::int64_t N = State.range(0);
  for (std::int64_t I = 0; I != N; ++I) {
    Handle Fresh = H.allocateObject(P.findClass("Node"));
    H.object(Fresh).Slots[P.fieldOf(Next).Slot] =
        Value::makeRef(Roots.Head);
    Roots.Head = Fresh;
  }
  for (auto _ : State) {
    GCStats S = H.collect();
    benchmark::DoNotOptimize(S.ReachableObjects);
  }
  State.SetItemsProcessed(State.iterations() * N);
  H.removeRootSource(&Roots);
}
BENCHMARK(BM_MarkSweepGC)->Arg(1000)->Arg(10000)->Arg(100000);

/// Minor-collection cost against OLD-generation size. A promoted list
/// of range(0) nodes sits in the old generation; each iteration churns
/// a fixed 64 young objects and runs a minor collection. The work a
/// minor GC does should depend on the young population only: the sweep
/// walks just the young span set, so time should stay flat in range(0).
void BM_MinorGC(benchmark::State &State) {
  Program P = buildNodeGCProgram();
  Heap H(P);
  GenerationalConfig G;
  G.Enabled = true;
  G.PromoteAge = 1;
  G.MajorEveryNMinors = 0;
  H.setGenerational(G);
  HeadPin Roots;
  H.addRootSource(&Roots);
  ClassId Node = P.findClass("Node");
  FieldId Next = P.findField(Node, "next");
  std::int64_t OldN = State.range(0);
  for (std::int64_t I = 0; I != OldN; ++I) {
    Handle Fresh = H.allocateObject(Node);
    H.object(Fresh).Slots[P.fieldOf(Next).Slot] = Value::makeRef(Roots.Head);
    Roots.Head = Fresh;
  }
  // One minor cycle promotes the whole pinned chain (PromoteAge = 1).
  H.collectMinor();
  for (auto _ : State) {
    for (int I = 0; I != 64; ++I)
      H.allocateObject(Node); // young garbage
    GCStats S = H.collectMinor();
    benchmark::DoNotOptimize(S.FreedObjects);
  }
  State.SetItemsProcessed(State.iterations());
  H.removeRootSource(&Roots);
}
BENCHMARK(BM_MinorGC)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SiteInterning(benchmark::State &State) {
  profiler::SiteTable Sites;
  std::vector<CallFrameRef> Chain = {{MethodId(1), 4, 10},
                                     {MethodId(2), 9, 20},
                                     {MethodId(3), 1, 30}};
  std::uint32_t Pc = 0;
  for (auto _ : State) {
    Chain[0].Pc = (Pc++) & 1023; // 1024 distinct sites, then hits
    benchmark::DoNotOptimize(Sites.intern(
        std::span<const CallFrameRef>(Chain.data(), Chain.size()), 4));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SiteInterning);

/// Raw CRC-32C throughput at the event-buffer chunk size -- the upper
/// bound on what the framing can cost per flushed chunk.
void BM_Crc32c(benchmark::State &State) {
  std::vector<std::byte> Buf(State.range(0));
  for (std::size_t I = 0; I != Buf.size(); ++I)
    Buf[I] = std::byte(I * 31);
  for (auto _ : State)
    benchmark::DoNotOptimize(support::crc32c(Buf.data(), Buf.size()));
  State.SetBytesProcessed(State.iterations() * Buf.size());
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(64 * 1024);

/// The table-driven software fallback on the same buffers -- the
/// portable floor the hardware dispatch (BM_Crc32c) is measured against.
void BM_Crc32cSW(benchmark::State &State) {
  std::vector<std::byte> Buf(State.range(0));
  for (std::size_t I = 0; I != Buf.size(); ++I)
    Buf[I] = std::byte(I * 31);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        support::crc32cSoftware(Buf.data(), Buf.size()));
  State.SetBytesProcessed(State.iterations() * Buf.size());
}
BENCHMARK(BM_Crc32cSW)->Arg(4096)->Arg(64 * 1024);

/// Counts decoded records (the decode benchmarks' null consumer).
class CountingConsumer : public profiler::EventConsumer {
public:
  std::uint64_t Events = 0;
  void onSite(profiler::SiteId,
              std::span<const profiler::SiteFrame>) override {}
  void onEvent(const profiler::EventRecord &) override { ++Events; }
};

/// Replays \p Framed (no file header) in \p Format once per iteration;
/// items are decoded event records, bytes the framed input.
void replayLoop(benchmark::State &State, std::span<const std::byte> Framed,
                profiler::WireFormat Format) {
  std::uint64_t EventsPerPass = 0;
  for (auto _ : State) {
    CountingConsumer C;
    std::string Err;
    if (!profiler::replayBytes(Framed, C, &Err, Format))
      std::abort();
    EventsPerPass = C.Events;
    benchmark::DoNotOptimize(C.Events);
  }
  State.SetItemsProcessed(State.iterations() * EventsPerPass);
  State.SetBytesProcessed(State.iterations() * Framed.size());
}

/// Phase-2 decode throughput: frames + records of an in-memory
/// recording through the full FrameDecoder/StreamDecoder path into a
/// null consumer. Arg is the wire format (8, the only one written);
/// items are decoded event records.
void BM_ReplayDecode(benchmark::State &State) {
  Program P = buildHotLoop();
  profiler::MemorySink Mem;
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.Sink = &Mem;
  VirtualMachine VM(P, Opts);
  VM.setInputs({10000});
  if (VM.run() != Interpreter::Status::Ok)
    std::abort();
  replayLoop(State, Mem.bytes(),
             static_cast<profiler::WireFormat>(State.range(0)));
}
BENCHMARK(BM_ReplayDecode)->Arg(8);

/// The readers on the same run of juru, 2 KiB chunks each: Arg 4 decodes
/// the committed v4 recording (tests/data/juru_v4.jdev, absolute ids) and
/// Arg 7 the committed v7 one (juru_v7.jdev, delta-coded ids, compressed)
/// through the legacy reader (profiler/LegacyStream.h), which rebuilds
/// each object's trailer from its Alloc and Use records; Arg 8 a v8
/// recording, whose records carry their trailers, through FrameDecoder.
/// Items/s compare the per-record cost of the paths; items are the
/// records a consumer receives.
void BM_ReplayDecodeFixture(benchmark::State &State) {
  auto Format = static_cast<profiler::WireFormat>(State.range(0));
  std::vector<std::byte> Framed;
  if (profiler::legacyFormat(Format)) {
    std::string Path = std::string(JDRAG_TEST_DATA_DIR) + "/juru_v" +
                       std::to_string(State.range(0)) + ".jdev";
    std::FILE *F = std::fopen(Path.c_str(), "rb");
    if (!F)
      std::abort();
    std::byte Buf[4096];
    while (std::size_t N = std::fread(Buf, 1, sizeof(Buf), F))
      Framed.insert(Framed.end(), Buf, Buf + N);
    std::fclose(F);
    Framed.erase(Framed.begin(),
                 Framed.begin() + static_cast<std::ptrdiff_t>(
                                      profiler::streamHeaderBytes(Format)));
  } else {
    BenchmarkProgram B = buildJuru();
    profiler::MemorySink Mem;
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.EventChunkBytes = 2048;
    Opts.Sink = &Mem;
    VirtualMachine VM(B.Prog, Opts);
    VM.setInputs(B.DefaultInputs);
    if (VM.run() != Interpreter::Status::Ok)
      std::abort();
    Framed.assign(Mem.bytes().begin(), Mem.bytes().end());
  }
  replayLoop(State, Framed, Format);
}
BENCHMARK(BM_ReplayDecodeFixture)->Arg(4)->Arg(7)->Arg(8);

/// Raw codec throughput: lzCompress + lzDecompress over the hot loop's
/// real event stream, one 64 KiB block at a time (the production chunk
/// size). Bytes processed are *uncompressed* bytes, so the rate reads
/// as end-to-end round-trip MB/s; the ratio counter is the compression
/// the event encoding admits.
void BM_LzRoundTrip(benchmark::State &State) {
  Program P = buildHotLoop();
  profiler::MemorySink Mem;
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.Sink = &Mem;
  VirtualMachine VM(P, Opts);
  VM.setInputs({10000});
  if (VM.run() != Interpreter::Status::Ok)
    std::abort();
  std::span<const std::byte> Bytes = Mem.bytes();
  constexpr std::size_t Block = 64 * 1024;

  std::uint64_t Raw = 0, Packed = 0;
  for (auto _ : State) {
    Raw = Packed = 0;
    std::vector<std::uint8_t> Out;
    for (std::size_t Off = 0; Off < Bytes.size(); Off += Block) {
      std::size_t N = std::min(Block, Bytes.size() - Off);
      std::vector<std::uint8_t> C =
          support::lzCompress(Bytes.data() + Off, N);
      Raw += N;
      Packed += C.empty() ? N : C.size();
      if (!C.empty() &&
          (!support::lzDecompress(C.data(), C.size(), Out, N) ||
           Out.size() != N))
        std::abort();
      benchmark::DoNotOptimize(C.data());
    }
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<std::int64_t>(Raw));
  State.counters["ratio"] = benchmark::Counter(
      Packed ? static_cast<double>(Raw) / static_cast<double>(Packed) : 1.0);
}
BENCHMARK(BM_LzRoundTrip);

/// The compressed rung of the BM_ReplayDecode ladder: the same stream,
/// compressed once up front, decoded through the FrameDecoder's
/// transparent chunk decompression. Bytes processed are the
/// *compressed* input bytes; the acceptance gate compares items/s (the
/// decoded-record rate) against BM_ReplayDecode/8 -- it must stay
/// within 1.2x.
void BM_ReplayDecodeCompressed(benchmark::State &State) {
  Program P = buildHotLoop();
  profiler::MemorySink Mem;
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.Sink = &Mem;
  VirtualMachine VM(P, Opts);
  VM.setInputs({10000});
  if (VM.run() != Interpreter::Status::Ok)
    std::abort();

  // One pass through the chunk compressor: the stream as a compressing
  // sink would have put it on disk.
  std::vector<std::byte> Packed;
  {
    profiler::ChunkCompressor Comp;
    std::span<const std::byte> Bytes = Mem.bytes();
    std::size_t Off = 0;
    while (Off < Bytes.size()) {
      profiler::ChunkFrame Fr = profiler::readFrame(
          Bytes.subspan(Off), profiler::DefaultWireFormat);
      std::span<const std::byte> T = Comp.transform(Fr.Data, Fr.Extent);
      if (T.empty())
        std::abort();
      Packed.insert(Packed.end(), T.begin(), T.end());
      Off += Fr.Extent;
    }
  }

  replayLoop(State, Packed, profiler::DefaultWireFormat);
  State.counters["ratio"] = benchmark::Counter(
      static_cast<double>(Mem.bytes().size()) /
      static_cast<double>(Packed.size()));
}
BENCHMARK(BM_ReplayDecodeCompressed);

/// Discards finished object records.
class NullRecordSink : public profiler::RecordSink {
public:
  void onRecord(const profiler::ObjectRecord &) override {}
};

/// The decode + trailer half of phase 2 as one loop: an in-memory
/// recording of jack (the churn_exact input of pipebench, ~1.5 M events)
/// replayed into a DragProfiler whose records go to a null sink. The
/// records decode straight into the trailer rules, which pipebench's
/// separately timed decode and trailers layers cannot show. Items are
/// decoded events.
void BM_ReplayProfile(benchmark::State &State) {
  BenchmarkProgram B = buildJack();
  profiler::MemorySink Mem;
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.Sink = &Mem;
  VirtualMachine VM(B.Prog, Opts);
  VM.setInputs({30153, 25});
  if (VM.run() != Interpreter::Status::Ok || !VM.streamIntact())
    std::abort();
  std::uint64_t Events = 0;
  NullRecordSink Null;
  for (auto _ : State) {
    profiler::DragProfiler Prof(B.Prog);
    Prof.setRecordSink(&Null);
    profiler::FrameDecoder Dec(Prof);
    if (!Dec.feed(Mem.bytes().data(), Mem.bytes().size()) ||
        !Dec.atRecordBoundary())
      std::abort();
    Events = Dec.eventsDecoded();
    benchmark::DoNotOptimize(Prof.log().EndTime);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<std::int64_t>(Events));
  State.SetBytesProcessed(State.iterations() *
                          static_cast<std::int64_t>(Mem.bytes().size()));
}
BENCHMARK(BM_ReplayProfile)->Unit(benchmark::kMillisecond);

/// End-to-end drag report off a multi-chunk recording through the
/// streaming engine (analyzeEventStream: read + index + decode + fold +
/// merge), the path `jdrag report --jobs N` runs; Arg is the worker
/// count, items are the records folded. Jobs=1 is the sequential path,
/// so the ratio between rungs is the sharded speedup (ceilinged by the
/// machine's core count). The rungs run on wall time: workers decode on
/// their own threads, so the main thread's CPU time would hide them.
/// The recording is jack at 10x the churn_exact input (~3.7 MB, ~1200
/// chunks), large enough for sharding to pay; it is made once per
/// process and shared by the rungs.
void BM_ReplayParallel(benchmark::State &State) {
  /// The recording's file, removed at exit.
  struct Recording {
    std::string Path;
    ~Recording() { std::remove(Path.c_str()); }
  };
  static BenchmarkProgram Jack = buildJack();
  static const Recording Rec = [] {
    char Path[64];
    std::snprintf(Path, sizeof(Path), "/tmp/jdrag_bench_par.%d.jdev",
                  static_cast<int>(getpid()));
    profiler::FileEventSink Sink;
    if (!Sink.open(Path))
      std::abort();
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    VirtualMachine VM(Jack.Prog, Opts);
    VM.setInputs({300000, 32});
    if (VM.run() != Interpreter::Status::Ok || !VM.streamIntact())
      std::abort();
    return Recording{Path};
  }();
  analysis::StreamAnalysisOptions O;
  O.Jobs = static_cast<unsigned>(State.range(0));
  std::uint64_t RecordsPerPass = 0;
  for (auto _ : State) {
    analysis::StreamAnalysisResult R;
    if (!analysis::analyzeEventStream(Rec.Path, Jack.Prog, O, R) ||
        R.Materialized)
      std::abort();
    RecordsPerPass = R.RecordsFolded;
    benchmark::DoNotOptimize(R.Report.get());
  }
  State.SetItemsProcessed(State.iterations() * RecordsPerPass);
}
BENCHMARK(BM_ReplayParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Phase-2 report ladder over one recorded .jdev (docs/analysis.md).
/// The arg numbers are kept from the full ladder (BENCH_9.json) so rungs
/// stay comparable across runs:
///
///   arg 1: materialized -- sequential replayProfile() into
///          ProfileLog::Records, then the fold engine over the vector
///          (what DragReport(P, Log) and `--materialize` run)
///   arg 2: streaming -- the production analyzeEventStream path: records
///          fold as the decoder emits them, Records never materializes
///   arg 4: sharded streaming merge (jobs=2; on a 1-CPU box this prices
///          the shard/merge machinery, not parallel speedup)
///   arg 6: aggregation only -- the fold over a pre-decoded record
///          vector (decode floor factored out)
///   arg 7: decode floor -- the streaming driver with every fold
///          disabled; what "reports at decode speed" is measured against
///
/// items/s = object records through the report per second. The
/// resident_bytes counter is the analysis-state high-water: the record
/// vector for materialized rungs, fold state for streaming ones -- the
/// O(records) vs O(sites) story in one number.
void BM_Report(benchmark::State &State) {
  // A real paper workload (site-diverse, ~35k records), not the
  // single-site hot loop: report aggregation cost scales with site
  // spread.
  BenchmarkProgram B = buildJavac();
  const Program &P = B.Prog;
  char Path[64];
  std::snprintf(Path, sizeof(Path), "/tmp/jdrag_bench_report.%d.jdev",
                static_cast<int>(getpid()));
  {
    profiler::FileEventSink Sink;
    if (!Sink.open(Path))
      std::abort();
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.EventChunkBytes = 8 * 1024; // force a shardable chunk count
    VirtualMachine VM(P, Opts);
    VM.setInputs(B.DefaultInputs);
    if (VM.run() != Interpreter::Status::Ok || !VM.streamIntact())
      std::abort();
  }
  auto Aggregate = [&](const profiler::ProfileLog &Log) {
    analysis::SiteGroupFold F(Log.SampleRate);
    for (const profiler::ObjectRecord &R : Log.Records)
      F.fold(R);
    analysis::DragReportData Data = F.finish(P, Log.Sites);
    benchmark::DoNotOptimize(Data.Groups.data());
  };
  const int Mode = static_cast<int>(State.range(0));
  std::uint64_t Records = 0;
  std::size_t Resident = 0;
  if (Mode == 6) {
    profiler::ProfileLog Log;
    if (!profiler::replayProfile(Path, P, profiler::ProfilerConfig(), Log))
      std::abort();
    for (auto _ : State)
      Aggregate(Log);
    State.SetItemsProcessed(State.iterations() * Log.Records.size());
    State.counters["resident_bytes"] =
        static_cast<double>(Log.Records.size() * sizeof(profiler::ObjectRecord));
    std::remove(Path);
    return;
  }
  for (auto _ : State) {
    if (Mode == 1) {
      profiler::ProfileLog Log;
      if (!profiler::replayProfile(Path, P, profiler::ProfilerConfig(), Log))
        std::abort();
      Aggregate(Log);
      Records = Log.Records.size();
      Resident = Log.Records.size() * sizeof(profiler::ObjectRecord);
    } else {
      analysis::StreamAnalysisOptions O;
      O.Jobs = Mode == 4 ? 2 : 1;
      if (Mode == 7) {
        O.WantReport = false;
        O.WantLifetimes = false;
        O.CurveSamples = 0;
      }
      analysis::StreamAnalysisResult R;
      if (!analysis::analyzeEventStream(Path, P, O, R) || R.Materialized)
        std::abort();
      benchmark::DoNotOptimize(R.Report.get());
      Records = R.RecordsFolded;
      // The folds are all the state: records arrive finished.
      Resident = R.FoldStateBytes;
    }
  }
  State.SetItemsProcessed(State.iterations() * Records);
  State.counters["resident_bytes"] = static_cast<double>(Resident);
  std::remove(Path);
}
BENCHMARK(BM_Report)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Arg(7)
    ->UseRealTime();

void BM_ProfileLogRoundTrip(benchmark::State &State) {
  BenchmarkProgram B = buildJuru();
  RunResult R = profiledRun(B.Prog, {2});
  // Unique per process so concurrent bench runs (e.g. the bench-smoke
  // ctest entry next to a manual run) don't clobber each other's file.
  char Path[64];
  std::snprintf(Path, sizeof(Path), "/tmp/jdrag_bench_log.%d.bin",
                static_cast<int>(getpid()));
  for (auto _ : State) {
    if (!R.Log.writeFile(Path))
      std::abort();
    profiler::ProfileLog Back;
    if (!profiler::ProfileLog::readFile(Path, Back))
      std::abort();
    benchmark::DoNotOptimize(Back.Records.size());
  }
  State.SetItemsProcessed(State.iterations() * R.Log.Records.size());
  std::remove(Path);
}
BENCHMARK(BM_ProfileLogRoundTrip);

} // namespace

BENCHMARK_MAIN();
