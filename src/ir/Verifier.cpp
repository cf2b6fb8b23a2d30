//===- ir/Verifier.cpp ----------------------------------------------------===//

#include "ir/Verifier.h"

#include "support/Format.h"

#include <algorithm>
#include <deque>
#include <optional>

using namespace jdrag;
using namespace jdrag::ir;

namespace {

/// Per-method verification engine.
class MethodVerifier {
public:
  MethodVerifier(const Program &P, MethodInfo &M, std::string &Err)
      : P(P), M(M), Err(Err) {}

  bool run();

private:
  using Stack = std::vector<ValueKind>;

  void error(std::uint32_t Pc, const std::string &Msg) {
    Err += formatString("%s: pc %u: %s\n", P.qualifiedMethodName(M.Id).c_str(),
                        Pc, Msg.c_str());
    Failed = true;
  }

  bool pop(std::uint32_t Pc, Stack &S, ValueKind Want) {
    if (S.empty()) {
      error(Pc, "operand stack underflow");
      return false;
    }
    ValueKind Got = S.back();
    S.pop_back();
    if (Got != Want) {
      error(Pc, formatString("expected %s on stack, found %s",
                             valueKindName(Want), valueKindName(Got)));
      return false;
    }
    return true;
  }

  bool popAny(std::uint32_t Pc, Stack &S) {
    if (S.empty()) {
      error(Pc, "operand stack underflow");
      return false;
    }
    S.pop_back();
    return true;
  }

  bool checkLocal(std::uint32_t Pc, std::int32_t Slot, ValueKind Want) {
    if (Slot < 0 || static_cast<std::uint32_t>(Slot) >= M.numLocals()) {
      error(Pc, formatString("local slot %d out of range", Slot));
      return false;
    }
    if (M.LocalKinds[static_cast<std::uint32_t>(Slot)] != Want) {
      error(Pc, formatString("local slot %d holds %s, opcode wants %s", Slot,
                             valueKindName(M.LocalKinds[Slot]),
                             valueKindName(Want)));
      return false;
    }
    return true;
  }

  bool checkField(std::uint32_t Pc, std::int32_t Idx, bool WantStatic,
                  const FieldInfo *&F) {
    if (Idx < 0 || static_cast<std::size_t>(Idx) >= P.Fields.size()) {
      error(Pc, "field id out of range");
      return false;
    }
    F = &P.Fields[static_cast<std::uint32_t>(Idx)];
    if (F->IsStatic != WantStatic) {
      error(Pc, formatString("field %s static-ness mismatch",
                             F->Name.c_str()));
      return false;
    }
    return true;
  }

  /// Simulates instruction \p Pc over \p S; returns successor pcs, or
  /// nullopt on a verification error.
  std::optional<std::vector<std::uint32_t>> step(std::uint32_t Pc, Stack &S);

  /// Merges \p S into the recorded state at \p Pc, enqueueing it if the
  /// state is new. Reports an error on inconsistent merge.
  void flowTo(std::uint32_t FromPc, std::uint32_t Pc, const Stack &S);

  const Program &P;
  MethodInfo &M;
  std::string &Err;
  bool Failed = false;

  std::vector<std::optional<Stack>> InState;
  std::deque<std::uint32_t> Worklist;
  std::uint32_t MaxDepth = 0;
};

void MethodVerifier::flowTo(std::uint32_t FromPc, std::uint32_t Pc,
                            const Stack &S) {
  if (Pc >= M.Code.size()) {
    error(FromPc, formatString("control flows to out-of-range pc %u", Pc));
    return;
  }
  std::optional<Stack> &Existing = InState[Pc];
  if (!Existing) {
    // An in-state counts toward MaxStack too: a handler entry holds the
    // exception before its first instruction runs.
    MaxDepth = std::max(MaxDepth, static_cast<std::uint32_t>(S.size()));
    Existing = S;
    Worklist.push_back(Pc);
    return;
  }
  if (*Existing != S)
    error(Pc, "inconsistent operand stack at merge point");
}

std::optional<std::vector<std::uint32_t>>
MethodVerifier::step(std::uint32_t Pc, Stack &S) {
  const Instruction &I = M.Code[Pc];
  auto Fail = std::nullopt;
  std::vector<std::uint32_t> Next;
  auto FallThrough = [&] { Next.push_back(Pc + 1); };

  switch (I.Op) {
  case Opcode::IConst:
    S.push_back(ValueKind::Int);
    FallThrough();
    break;
  case Opcode::DConst:
    S.push_back(ValueKind::Double);
    FallThrough();
    break;
  case Opcode::AConstNull:
    S.push_back(ValueKind::Ref);
    FallThrough();
    break;
  case Opcode::Nop:
    FallThrough();
    break;
  case Opcode::Pop:
    if (!popAny(Pc, S))
      return Fail;
    FallThrough();
    break;
  case Opcode::Dup: {
    if (S.empty()) {
      error(Pc, "dup on empty stack");
      return Fail;
    }
    S.push_back(S.back());
    FallThrough();
    break;
  }
  case Opcode::Swap: {
    if (S.size() < 2) {
      error(Pc, "swap needs two operands");
      return Fail;
    }
    std::swap(S[S.size() - 1], S[S.size() - 2]);
    FallThrough();
    break;
  }

  case Opcode::ILoad:
    if (!checkLocal(Pc, I.A, ValueKind::Int))
      return Fail;
    S.push_back(ValueKind::Int);
    FallThrough();
    break;
  case Opcode::IStore:
    if (!checkLocal(Pc, I.A, ValueKind::Int) || !pop(Pc, S, ValueKind::Int))
      return Fail;
    FallThrough();
    break;
  case Opcode::DLoad:
    if (!checkLocal(Pc, I.A, ValueKind::Double))
      return Fail;
    S.push_back(ValueKind::Double);
    FallThrough();
    break;
  case Opcode::DStore:
    if (!checkLocal(Pc, I.A, ValueKind::Double) ||
        !pop(Pc, S, ValueKind::Double))
      return Fail;
    FallThrough();
    break;
  case Opcode::ALoad:
    if (!checkLocal(Pc, I.A, ValueKind::Ref))
      return Fail;
    S.push_back(ValueKind::Ref);
    FallThrough();
    break;
  case Opcode::AStore:
    if (!checkLocal(Pc, I.A, ValueKind::Ref) || !pop(Pc, S, ValueKind::Ref))
      return Fail;
    FallThrough();
    break;

  case Opcode::IAdd:
  case Opcode::ISub:
  case Opcode::IMul:
  case Opcode::IDiv:
  case Opcode::IRem:
  case Opcode::IAnd:
  case Opcode::IOr:
  case Opcode::IXor:
  case Opcode::IShl:
  case Opcode::IShr:
    if (!pop(Pc, S, ValueKind::Int) || !pop(Pc, S, ValueKind::Int))
      return Fail;
    S.push_back(ValueKind::Int);
    FallThrough();
    break;
  case Opcode::INeg:
    if (!pop(Pc, S, ValueKind::Int))
      return Fail;
    S.push_back(ValueKind::Int);
    FallThrough();
    break;
  case Opcode::DAdd:
  case Opcode::DSub:
  case Opcode::DMul:
  case Opcode::DDiv:
    if (!pop(Pc, S, ValueKind::Double) || !pop(Pc, S, ValueKind::Double))
      return Fail;
    S.push_back(ValueKind::Double);
    FallThrough();
    break;
  case Opcode::DNeg:
    if (!pop(Pc, S, ValueKind::Double))
      return Fail;
    S.push_back(ValueKind::Double);
    FallThrough();
    break;
  case Opcode::DCmp:
    if (!pop(Pc, S, ValueKind::Double) || !pop(Pc, S, ValueKind::Double))
      return Fail;
    S.push_back(ValueKind::Int);
    FallThrough();
    break;
  case Opcode::I2D:
    if (!pop(Pc, S, ValueKind::Int))
      return Fail;
    S.push_back(ValueKind::Double);
    FallThrough();
    break;
  case Opcode::D2I:
    if (!pop(Pc, S, ValueKind::Double))
      return Fail;
    S.push_back(ValueKind::Int);
    FallThrough();
    break;

  case Opcode::Goto:
    Next.push_back(static_cast<std::uint32_t>(I.A));
    break;
  case Opcode::IfEqZ:
  case Opcode::IfNeZ:
  case Opcode::IfLtZ:
  case Opcode::IfLeZ:
  case Opcode::IfGtZ:
  case Opcode::IfGeZ:
    if (!pop(Pc, S, ValueKind::Int))
      return Fail;
    Next.push_back(static_cast<std::uint32_t>(I.A));
    FallThrough();
    break;
  case Opcode::IfICmpEq:
  case Opcode::IfICmpNe:
  case Opcode::IfICmpLt:
  case Opcode::IfICmpLe:
  case Opcode::IfICmpGt:
  case Opcode::IfICmpGe:
    if (!pop(Pc, S, ValueKind::Int) || !pop(Pc, S, ValueKind::Int))
      return Fail;
    Next.push_back(static_cast<std::uint32_t>(I.A));
    FallThrough();
    break;
  case Opcode::IfNull:
  case Opcode::IfNonNull:
    if (!pop(Pc, S, ValueKind::Ref))
      return Fail;
    Next.push_back(static_cast<std::uint32_t>(I.A));
    FallThrough();
    break;
  case Opcode::IfACmpEq:
  case Opcode::IfACmpNe:
    if (!pop(Pc, S, ValueKind::Ref) || !pop(Pc, S, ValueKind::Ref))
      return Fail;
    Next.push_back(static_cast<std::uint32_t>(I.A));
    FallThrough();
    break;

  case Opcode::New:
    if (I.A < 0 || static_cast<std::size_t>(I.A) >= P.Classes.size()) {
      error(Pc, "class id out of range");
      return Fail;
    }
    S.push_back(ValueKind::Ref);
    FallThrough();
    break;
  case Opcode::GetField: {
    const FieldInfo *F = nullptr;
    if (!checkField(Pc, I.A, /*WantStatic=*/false, F) ||
        !pop(Pc, S, ValueKind::Ref))
      return Fail;
    S.push_back(F->Kind);
    FallThrough();
    break;
  }
  case Opcode::PutField: {
    const FieldInfo *F = nullptr;
    if (!checkField(Pc, I.A, /*WantStatic=*/false, F) ||
        !pop(Pc, S, F->Kind) || !pop(Pc, S, ValueKind::Ref))
      return Fail;
    FallThrough();
    break;
  }
  case Opcode::GetStatic: {
    const FieldInfo *F = nullptr;
    if (!checkField(Pc, I.A, /*WantStatic=*/true, F))
      return Fail;
    S.push_back(F->Kind);
    FallThrough();
    break;
  }
  case Opcode::PutStatic: {
    const FieldInfo *F = nullptr;
    if (!checkField(Pc, I.A, /*WantStatic=*/true, F) || !pop(Pc, S, F->Kind))
      return Fail;
    FallThrough();
    break;
  }

  case Opcode::NewArray:
    if (I.A < 0 || I.A > static_cast<std::int32_t>(ArrayKind::Ref)) {
      error(Pc, "bad array kind");
      return Fail;
    }
    if (!pop(Pc, S, ValueKind::Int))
      return Fail;
    S.push_back(ValueKind::Ref);
    FallThrough();
    break;
  case Opcode::ArrayLength:
    if (!pop(Pc, S, ValueKind::Ref))
      return Fail;
    S.push_back(ValueKind::Int);
    FallThrough();
    break;
  case Opcode::AALoad:
    if (!pop(Pc, S, ValueKind::Int) || !pop(Pc, S, ValueKind::Ref))
      return Fail;
    S.push_back(ValueKind::Ref);
    FallThrough();
    break;
  case Opcode::AAStore:
    if (!pop(Pc, S, ValueKind::Ref) || !pop(Pc, S, ValueKind::Int) ||
        !pop(Pc, S, ValueKind::Ref))
      return Fail;
    FallThrough();
    break;
  case Opcode::IALoad:
  case Opcode::CALoad:
    if (!pop(Pc, S, ValueKind::Int) || !pop(Pc, S, ValueKind::Ref))
      return Fail;
    S.push_back(ValueKind::Int);
    FallThrough();
    break;
  case Opcode::IAStore:
  case Opcode::CAStore:
    if (!pop(Pc, S, ValueKind::Int) || !pop(Pc, S, ValueKind::Int) ||
        !pop(Pc, S, ValueKind::Ref))
      return Fail;
    FallThrough();
    break;
  case Opcode::DALoad:
    if (!pop(Pc, S, ValueKind::Int) || !pop(Pc, S, ValueKind::Ref))
      return Fail;
    S.push_back(ValueKind::Double);
    FallThrough();
    break;
  case Opcode::DAStore:
    if (!pop(Pc, S, ValueKind::Double) || !pop(Pc, S, ValueKind::Int) ||
        !pop(Pc, S, ValueKind::Ref))
      return Fail;
    FallThrough();
    break;

  case Opcode::InvokeVirtual:
  case Opcode::InvokeSpecial:
  case Opcode::InvokeStatic: {
    if (I.A < 0 || static_cast<std::size_t>(I.A) >= P.Methods.size()) {
      error(Pc, "method id out of range");
      return Fail;
    }
    const MethodInfo &Callee = P.Methods[static_cast<std::uint32_t>(I.A)];
    bool WantStatic = I.Op == Opcode::InvokeStatic;
    if (Callee.IsStatic != WantStatic) {
      error(Pc, formatString("call kind/static mismatch for %s",
                             Callee.Name.c_str()));
      return Fail;
    }
    if (I.Op == Opcode::InvokeVirtual && Callee.VTableSlot < 0) {
      error(Pc, formatString("invokevirtual on non-virtual %s",
                             Callee.Name.c_str()));
      return Fail;
    }
    for (auto It = Callee.Params.rbegin(); It != Callee.Params.rend(); ++It)
      if (!pop(Pc, S, *It))
        return Fail;
    if (!Callee.IsStatic && !pop(Pc, S, ValueKind::Ref))
      return Fail;
    if (Callee.Ret != ValueKind::Void)
      S.push_back(Callee.Ret);
    FallThrough();
    break;
  }

  case Opcode::Return:
    if (M.Ret != ValueKind::Void) {
      error(Pc, "void return from non-void method");
      return Fail;
    }
    break;
  case Opcode::IReturn:
    if (M.Ret != ValueKind::Int || !pop(Pc, S, ValueKind::Int)) {
      error(Pc, "ireturn kind mismatch");
      return Fail;
    }
    break;
  case Opcode::DReturn:
    if (M.Ret != ValueKind::Double || !pop(Pc, S, ValueKind::Double)) {
      error(Pc, "dreturn kind mismatch");
      return Fail;
    }
    break;
  case Opcode::AReturn:
    if (M.Ret != ValueKind::Ref || !pop(Pc, S, ValueKind::Ref)) {
      error(Pc, "areturn kind mismatch");
      return Fail;
    }
    break;

  case Opcode::Throw:
    if (!pop(Pc, S, ValueKind::Ref))
      return Fail;
    break;

  case Opcode::MonitorEnter:
  case Opcode::MonitorExit:
    if (!pop(Pc, S, ValueKind::Ref))
      return Fail;
    FallThrough();
    break;
  }

  if (S.size() > MaxDepth)
    MaxDepth = static_cast<std::uint32_t>(S.size());
  return Next;
}

bool MethodVerifier::run() {
  M.MaxStack = UnverifiedMaxStack; // until the method is accepted
  if (M.IsNative) {
    if (!M.Code.empty())
      error(0, "native method has bytecode");
    return !Failed;
  }
  if (M.Code.empty()) {
    error(0, "empty method body");
    return false;
  }
  if (M.numLocals() < M.numParamSlots()) {
    error(0, "fewer locals than parameter slots");
    return false;
  }

  InState.assign(M.Code.size(), std::nullopt);
  InState[0] = Stack();
  Worklist.push_back(0);
  // Seed handler entries: stack = [thrown exception].
  for (const ExceptionHandler &H : M.Handlers) {
    if (H.Target >= M.Code.size() || H.Start > H.End ||
        H.End > M.Code.size()) {
      error(H.Target, "exception handler range out of bounds");
      continue;
    }
    flowTo(H.Target, H.Target, Stack{ValueKind::Ref});
  }

  while (!Worklist.empty() && !Failed) {
    std::uint32_t Pc = Worklist.front();
    Worklist.pop_front();
    Stack S = *InState[Pc];
    auto Succs = step(Pc, S);
    if (!Succs)
      break;
    if (Succs->empty() && !isUnconditionalTerminator(M.Code[Pc].Op) &&
        !Failed)
      error(Pc, "non-terminator with no successors");
    for (std::uint32_t Succ : *Succs) {
      if (Succ >= M.Code.size()) {
        error(Pc, "control falls off the end of the method");
        continue;
      }
      flowTo(Pc, Succ, S);
    }
  }

  if (!Failed)
    M.MaxStack = MaxDepth;
  return !Failed;
}

} // namespace

bool jdrag::ir::verifyMethod(const Program &P, MethodInfo &M,
                             std::string &Err) {
  return MethodVerifier(P, M, Err).run();
}

bool jdrag::ir::verifyProgram(Program &P, std::string *Err) {
  std::string Diags;
  bool OK = true;

  if (!P.MainMethod.isValid()) {
    Diags += "program has no main method\n";
    OK = false;
  }
  for (const ClassInfo &C : P.Classes)
    if (C.Super.isValid() && !(C.Super < C.Id)) {
      Diags += formatString("class %s declared before its superclass\n",
                            C.Name.c_str());
      OK = false;
    }

  for (MethodInfo &M : P.Methods)
    if (!verifyMethod(P, M, Diags))
      OK = false;

  if (Err)
    *Err = Diags;
  return OK;
}
