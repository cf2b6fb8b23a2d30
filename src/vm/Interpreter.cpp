//===- vm/Interpreter.cpp -------------------------------------------------===//

#include "vm/Interpreter.h"

#include "support/Format.h"
#include "vm/EventEmitter.h"

#include <algorithm>

using namespace jdrag;
using namespace jdrag::ir;
using namespace jdrag::vm;

const char *jdrag::vm::statusName(Interpreter::Status S) {
  switch (S) {
  case Interpreter::Status::Ok:
    return "ok";
  case Interpreter::Status::UncaughtException:
    return "uncaught exception";
  case Interpreter::Status::StepLimit:
    return "step limit exceeded";
  case Interpreter::Status::Trap:
    return "trap";
  }
  return "?";
}

HeapObject &NativeContext::deref(Handle H) {
  Interp.fireNativeUse(H);
  return Interp.heap().object(H);
}

Interpreter::Interpreter(const Program &P, Heap &H, std::vector<Value> &Statics,
                         std::vector<NativeFn> Natives,
                         InterpreterConfig Config)
    : P(P), TheHeap(H), Statics(Statics), Natives(std::move(Natives)),
      Config(Config) {
  TheHeap.addRootSource(this);
  Decoded.resize(P.Methods.size());
  // Steady-state capacities: benchmarks reach tens of frames and a few
  // hundred values; reserving here keeps the first deep call chain from
  // paying a reallocation ladder inside the hot loop.
  Frames.reserve(64);
  Values.resize(256);
  ActiveCtorSerials.reserve(16);
  ArgScratch.reserve(16);
  CachedClock = TheHeap.clock();
}

Interpreter::~Interpreter() { TheHeap.removeRootSource(this); }

void Interpreter::visitRoots(HandleVisitor Visit) {
  // Each frame's locals and live operands, [LocalsAt, Sp): a value above
  // Sp is dead even though it still sits in Values.
  for (const Frame &F : Frames) {
    for (std::uint32_t I = F.LocalsAt; I != F.Sp; ++I)
      if (Values[I].Kind == ValueKind::Ref)
        Visit(Values[I].asRef());
    Visit(F.Receiver);
  }
  for (Handle H : FinalizingNow)
    Visit(H);
  Visit(PendingException);
  Visit(OOMInstance);
}

Interpreter::DecodedInsn *Interpreter::decodedCode(const MethodInfo &M) {
  std::vector<DecodedInsn> &D = Decoded[M.Id.Index];
  if (D.empty() && !M.Code.empty()) {
    D.reserve(M.Code.size());
    for (const Instruction &I : M.Code) {
      DecodedInsn DI;
      DI.Op = I.Op;
      DI.Line = I.Line;
      DI.A = I.A;
      if (I.Op == Opcode::DConst)
        DI.DVal = I.DVal;
      else
        DI.IVal = I.IVal;
      D.push_back(DI);
    }
  }
  return D.data();
}

std::string Interpreter::here() const {
  if (Frames.empty())
    return "<no frame>";
  const Frame &F = Frames.back();
  std::uint32_t Line = F.Pc < F.M->Code.size() ? F.M->Code[F.Pc].Line : 0;
  return formatString("%s pc %u (line %u)",
                      P.qualifiedMethodName(F.M->Id).c_str(), F.Pc, Line);
}

std::uint32_t Interpreter::currentSite() {
  Frame &F = Frames.back();
  DecodedInsn &DI = F.Code[F.Pc];
  if (DI.SiteCtx != F.Ctx) {
    DI.Site = Emitter->siteFor(F.Ctx, F.M->Id, F.Pc, DI.Line);
    DI.SiteCtx = F.Ctx;
  }
  return DI.Site;
}

void Interpreter::fireUse(Handle H, bool CalleeIsCtor) {
  if (!Emitter || H.isNull())
    return;
  HeapObject &Obj = TheHeap.object(H);
  // Unsampled objects carry no trailers: skip everything, including the
  // DuringInit computation. This early-out is the sampled-mode fast path.
  if (!Obj.Sampled)
    return;
  // The site is interned even for an untraced object (one that never
  // passed fireAllocate), so site ids follow the uses, as they always
  // have.
  std::uint32_t Site = currentSite();
  if (!Obj.Traced)
    return;
  // Initialization uses: the object's own <init> is active, this IS its
  // constructor invocation, or the constructor frame it was born inside
  // is still running (an object built as part of its container's
  // initialization).
  bool DuringInit =
      Obj.InitDepth > 0 || CalleeIsCtor ||
      (Obj.BirthCtorSerial != 0 &&
       std::binary_search(ActiveCtorSerials.begin(), ActiveCtorSerials.end(),
                          Obj.BirthCtorSerial));
  // The deep-GC boundary in force is captured here, as an epoch: a use
  // made while a deep GC runs finalizers belongs to the previous
  // interval even when its clock equals the deep GC's.
  std::uint32_t Epoch = Emitter->deepGCEpoch();
  if (!DuringInit && !Obj.UsedOutsideInit) {
    Obj.UsedOutsideInit = true;
    Obj.FirstUseTime = CachedClock;
    Obj.FirstUseEpoch = Epoch;
  }
  Obj.LastUseTime = CachedClock;
  Obj.LastUseEpoch = Epoch;
  Obj.LastUseSite = Site;
  ++Obj.UseCount;
}

void Interpreter::fireNativeUse(Handle H) { fireUse(H); }

void Interpreter::fireAllocate(Handle H) {
  if (!Emitter)
    return;
  HeapObject &Obj = TheHeap.object(H);
  // The sampling decision runs here, once per allocation; an unsampled
  // object skips site interning and its trailer (and, via its Sampled
  // bit, every later use and its Collect/Survivor record).
  if (!Emitter->sampleAllocation(Obj))
    return;
  Obj.Traced = true;
  Obj.AllocTime = CachedClock;
  Obj.AllocSite = currentSite();
  Obj.LastUseSite = ~0u;
  Obj.UseCount = 0;
  Obj.UsedOutsideInit = false;
}

void Interpreter::recomputeAllocSlack() {
  // The heap folds every heap-side boundary into allocationSlack()
  // (today: the scheduled-GC budget; span-refill is policy-free and
  // contributes nothing -- see Heap::allocationSlack). The two
  // interpreter-side budgets below min() in on top; the strict-<
  // fast-path gate then stops at whichever boundary is nearest.
  std::uint64_t S = TheHeap.allocationSlack();
  if (Config.DeepGCIntervalBytes) {
    std::uint64_t Used = TheHeap.clock() - LastDeepGC;
    S = std::min(S, Config.DeepGCIntervalBytes > Used
                        ? Config.DeepGCIntervalBytes - Used
                        : 0);
  }
  if (Config.MaxLiveBytes != ~0ull) {
    std::uint64_t Live = TheHeap.liveBytes();
    S = std::min(S, Config.MaxLiveBytes > Live ? Config.MaxLiveBytes - Live
                                               : 0);
  }
  AllocSlack = S;
}

void Interpreter::pushFrame(const MethodInfo &M, std::uint32_t LocalsAt,
                            std::uint32_t Ctx) {
  assert(M.MaxStack != ir::UnverifiedMaxStack &&
         "method has no verified MaxStack");
  std::uint32_t StackAt = LocalsAt + M.numLocals();
  reserveValues(std::size_t(StackAt) + M.MaxStack);
  for (std::uint32_t I = M.numParamSlots(), E = M.numLocals(); I != E; ++I)
    Values[LocalsAt + I] = Value::zeroOf(M.LocalKinds[I]);
  Frame &NF = Frames.emplace_back();
  NF.M = &M;
  NF.Code = decodedCode(M);
  NF.Ctx = Ctx;
  NF.LocalsAt = LocalsAt;
  NF.StackAt = StackAt;
  NF.Sp = StackAt;
  if (M.IsConstructor) {
    NF.Receiver = Values[LocalsAt].asRef();
    NF.IsCtorFrame = true;
    NF.Serial = NextFrameSerial++;
    ActiveCtorSerials.push_back(NF.Serial);
    if (!NF.Receiver.isNull())
      ++TheHeap.object(NF.Receiver).InitDepth;
  }
}

void Interpreter::popFrame() {
  Frame &F = Frames.back();
  if (F.IsCtorFrame) {
    if (!F.Receiver.isNull())
      --TheHeap.object(F.Receiver).InitDepth;
    assert(!ActiveCtorSerials.empty() &&
           ActiveCtorSerials.back() == F.Serial &&
           "constructor serial stack out of sync");
    ActiveCtorSerials.pop_back();
  }
  Frames.pop_back();
}

bool Interpreter::throwToHandler(Handle Ex, std::size_t Base) {
  const HeapObject &ExObj = TheHeap.object(Ex);
  assert(!ExObj.isArray() && "thrown value must be an object");
  ClassId ExClass = ExObj.Class;
  bool Top = true;
  while (Frames.size() > Base) {
    Frame &F = Frames.back();
    // Caller frames have advanced past their invoke; the handler range
    // must cover the call instruction itself.
    std::uint32_t CheckPc = Top ? F.Pc : F.Pc - 1;
    Top = false;
    for (const ExceptionHandler &H : F.M->Handlers) {
      if (CheckPc < H.Start || CheckPc >= H.End)
        continue;
      if (H.CatchType.isValid() && !P.isSubclassOf(ExClass, H.CatchType))
        continue;
      F.Sp = F.StackAt;
      Values[F.Sp++] = Value::makeRef(Ex);
      F.Pc = H.Target;
      return true;
    }
    popFrame();
  }
  PendingException = Ex;
  return false;
}

bool Interpreter::raiseOOM(std::size_t Base) {
  assert(!OOMInstance.isNull() && "OOM instance not installed");
  return throwToHandler(OOMInstance, Base);
}

void Interpreter::runPendingFinalizers() {
  // Copy the queue and keep the objects rooted while finalizers run.
  FinalizingNow = TheHeap.pendingFinalizers();
  TheHeap.finishFinalization();
  for (Handle H : FinalizingNow) {
    if (!TheHeap.isLive(H))
      continue;
    const HeapObject &Obj = TheHeap.object(H);
    MethodId Fin = P.classOf(Obj.Class).Finalizer;
    if (!Fin.isValid())
      continue;
    Value Recv = Value::makeRef(H);
    std::string Ignored;
    Status S = call(Fin, {&Recv, 1}, nullptr, &Ignored);
    if (S == Status::UncaughtException)
      PendingException = Handle(); // Java swallows finalizer exceptions.
    else if (S != Status::Ok)
      Trapped = true;
  }
  FinalizingNow.clear();
}

void Interpreter::runDeepGC() {
  if (InDeepGC)
    return;
  InDeepGC = true;
  ++DeepGCs;
  TheHeap.collect();
  runPendingFinalizers();
  TheHeap.collect();
  LastDeepGC = TheHeap.clock();
  if (Emitter)
    Emitter->deepGCEnd(TheHeap.clock());
  InDeepGC = false;
}

Interpreter::Status Interpreter::call(MethodId M, std::span<const Value> Args,
                                      Value *Ret, std::string *Err) {
  const MethodInfo &MI = P.methodOf(M);
  assert(!MI.IsNative && "cannot call natives directly");
  assert(Args.size() == MI.numParamSlots() && "argument count mismatch");
  // The activation starts at the top of the stack: above the caller's
  // live operands when a native or finalizer re-enters the VM.
  std::size_t Base = Frames.size();
  std::uint32_t At = Frames.empty() ? 0 : Frames.back().Sp;
  reserveValues(At + Args.size());
  std::copy(Args.begin(), Args.end(), Values.begin() + At);
  pushFrame(MI, At);
  Status S = execute(Base, Err);
  if (S == Status::Ok && Ret)
    *Ret = TopReturn;
  // On failure, discard any frames the failed activation left behind.
  while (Frames.size() > Base)
    popFrame();
  return S;
}

// The main loop, Interpreter::execute. Kept in its own file for
// readability; it must stay in this translation unit so the event hooks
// above inline into it.
#include "vm/InterpreterLoop.inc"
