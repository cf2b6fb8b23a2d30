//===- vm/VirtualMachine.cpp ----------------------------------------------===//

#include "vm/VirtualMachine.h"

#include "profiler/AsyncEventSink.h"
#include "support/ErrorHandling.h"
#include "vm/EventEmitter.h"

#include <algorithm>
#include <cstring>

using namespace jdrag;
using namespace jdrag::ir;
using namespace jdrag::vm;

VirtualMachine::VirtualMachine(const Program &P, VMOptions Opts)
    : P(P), Opts(Opts), TheHeap(P) {
  Statics.Values.resize(P.NumStaticSlots);
  for (const FieldInfo &F : P.Fields)
    if (F.IsStatic)
      Statics.Values[F.Slot] = Value::zeroOf(F.Kind);
  TheHeap.addRootSource(&Statics);
  TheHeap.setGenerational(Opts.Generational);

  bindStandardNatives();
}

VirtualMachine::~VirtualMachine() { TheHeap.removeRootSource(&Statics); }

void VirtualMachine::bindNative(std::string_view Name, NativeFn Fn) {
  Bound[std::string(Name)] = std::move(Fn);
}

void VirtualMachine::bindStandardNatives() {
  bindNative("jdrag.readInput", [this](NativeContext &Ctx) {
    std::int64_t Idx = Ctx.args()[0].asInt();
    if (Idx < 0 || static_cast<std::size_t>(Idx) >= Inputs.size())
      reportFatalError("jdrag.readInput index out of range");
    return Value::makeInt(Inputs[static_cast<std::size_t>(Idx)]);
  });
  bindNative("jdrag.inputCount", [this](NativeContext &) {
    return Value::makeInt(static_cast<std::int64_t>(Inputs.size()));
  });
  bindNative("jdrag.emitResult", [this](NativeContext &Ctx) {
    Outputs.push_back(Ctx.args()[0].asInt());
    return Value();
  });
  bindNative("jdrag.emitResultD", [this](NativeContext &Ctx) {
    double D = Ctx.args()[0].asDouble();
    std::int64_t Bits;
    std::memcpy(&Bits, &D, sizeof(Bits));
    Outputs.push_back(Bits);
    return Value();
  });
  bindNative("jdrag.touch", [](NativeContext &Ctx) {
    Handle H = Ctx.args()[0].asRef();
    if (!H.isNull())
      Ctx.deref(H); // fires the NativeDeref use event
    return Value();
  });
}

Value VirtualMachine::staticValue(FieldId F) const {
  const FieldInfo &FI = P.fieldOf(F);
  assert(FI.IsStatic && "staticValue on instance field");
  return Statics.Values[FI.Slot];
}

Interpreter::Status VirtualMachine::run(std::string *Err) {
  assert(!Ran && "a VirtualMachine runs exactly once");
  Ran = true;
  profiler::EventSink *RunSink = Opts.Sink;
  if (RunSink && Opts.AsyncEvents) {
    profiler::AsyncEventSink::Options AO;
    if (Opts.AsyncQueueChunks)
      AO.QueueChunks = Opts.AsyncQueueChunks;
    AO.Policy = Opts.AsyncDropOnFull
                    ? profiler::AsyncEventSink::QueueFullPolicy::Drop
                    : profiler::AsyncEventSink::QueueFullPolicy::Block;
    Async = std::make_unique<profiler::AsyncEventSink>(*RunSink, AO);
    RunSink = Async.get();
  }
  if (RunSink) {
    EventEmitter::Config EC;
    EC.SiteDepth = std::min(Opts.SiteDepth, MaxSiteDepth);
    EC.ChunkBytes = Opts.EventChunkBytes;
    EC.Sampling.SampleBytes = Opts.SampleBytes;
    EC.Sampling.SampleSeed = Opts.SampleSeed;
    Emitter = std::make_unique<EventEmitter>(*RunSink, EC);
    TheHeap.setEmitter(Emitter.get());
  }

  std::vector<NativeFn> NativeTable(P.Natives.size());
  for (const NativeInfo &N : P.Natives) {
    auto It = Bound.find(N.Name);
    if (It != Bound.end())
      NativeTable[N.Id.Index] = It->second;
  }

  InterpreterConfig IC;
  IC.DeepGCIntervalBytes = Opts.DeepGCIntervalBytes;
  IC.MaxSteps = Opts.MaxSteps;
  IC.MaxLiveBytes = Opts.MaxLiveBytes;
  Interp = std::make_unique<Interpreter>(P, TheHeap, Statics.Values,
                                         std::move(NativeTable), IC);
  Interp->setEmitter(Emitter.get());

  // Preallocate the OutOfMemoryError instance so OOM can be raised
  // without allocating (the VM pins it as a root).
  Interp->setOOMInstance(TheHeap.allocateObject(P.OOMClass));

  Interpreter::Status S = Interp->call(P.MainMethod, {}, nullptr, Err);
  if (S != Interpreter::Status::Ok)
    return S;

  // The paper: "When the program terminates, we perform a last deep GC
  // and then we log information for all objects that still remain in the
  // heap."
  Interp->runDeepGC();
  if (Emitter) {
    TheHeap.forEachLiveObject([&](Handle, const HeapObject &Obj) {
      if (Obj.Traced)
        Emitter->survivor(Obj, TheHeap.clock());
    });
    Emitter->terminate(TheHeap.clock());
    // A failing sink does not trap the program: its result stands, the
    // buffer keeps accounting drops, and the health record below tells
    // callers how much of the recording survived. finish() runs on the
    // outermost sink BEFORE the health snapshot so an async writer's
    // drain-time losses are already accounted.
    Emitter->finishStream();
    profiler::EventSink *Outer =
        Async ? static_cast<profiler::EventSink *>(Async.get()) : Opts.Sink;
    bool FinishOk = Outer->finish();
    Health = Emitter->health();
    if (!FinishOk && Health.ChunksDropped == 0) {
      // finish() failed after every chunk landed (close/fsync error);
      // reflect it so intact() is honest about durability.
      Health.ChunksDropped = 1;
      Health.LastErrno = Outer->lastErrno();
    }
  }
  return S;
}
