//===- transform/LazyAllocation.cpp ---------------------------------------===//

#include "transform/LazyAllocation.h"

#include "ir/Verifier.h"
#include "sa/CFG.h"
#include "sa/Dominators.h"
#include "sa/StackFlow.h"
#include "support/Format.h"
#include "transform/AllocWindow.h"
#include "transform/MethodEditor.h"

using namespace jdrag;
using namespace jdrag::ir;
using namespace jdrag::sa;
using namespace jdrag::transform;

namespace {

Instruction makeInst(Opcode Op, std::int32_t A = 0, std::uint32_t Line = 0) {
  Instruction I;
  I.Op = Op;
  I.A = A;
  I.Line = Line;
  return I;
}

/// True if some origin of \p Cell is a getfield of \p F.
bool mayBeFieldRead(const StackCell &Cell, FieldId F) {
  if (Cell.Top)
    return true;
  for (const StackValue &V : Cell.Origins)
    if (V.O == StackValue::Origin::Field &&
        static_cast<std::uint32_t>(V.Aux) == F.Index)
      return true;
  return false;
}

} // namespace

bool jdrag::transform::lazifyField(Program &P, const PassContext &Ctx,
                                   FieldId F, std::vector<LazifiedField> &Done,
                                   std::string *Why) {
  auto Refuse = [&](const std::string &Reason) {
    if (Why)
      *Why = Reason;
    return false;
  };

  const FieldInfo &FI = P.fieldOf(F);
  if (FI.IsStatic || FI.Kind != ValueKind::Ref)
    return Refuse("field is not an instance reference");
  ClassId Owner = FI.Owner;

  // Locate the unique eager initialization `this.F = new C(...)` in a
  // constructor of the owner; refuse if F is written anywhere else.
  MethodId InitCtor;
  std::uint32_t NewPc = 0;
  std::optional<AllocWindow> Window;
  for (const MethodInfo &M : P.Methods) {
    if (M.IsNative)
      continue;
    StackFlow SF(P, M);
    for (std::uint32_t Pc = 0, N = static_cast<std::uint32_t>(M.Code.size());
         Pc != N; ++Pc) {
      const Instruction &I = M.Code[Pc];
      if (I.Op != Opcode::PutField ||
          static_cast<std::uint32_t>(I.A) != F.Index)
        continue;
      // Only one store allowed, and it must be the eager init in a ctor.
      if (Window)
        return Refuse("field is written at more than one site");
      if (!M.IsConstructor || M.Owner != Owner)
        return Refuse("field is written outside the owner's constructor");
      StackCell Recv = SF.operand(Pc, 1);
      if (!(Recv.isSingle() &&
            Recv.single().O == StackValue::Origin::Local &&
            Recv.single().Aux == 0))
        return Refuse("eager initialization does not target `this`");
      StackCell Val = SF.operand(Pc, 0);
      if (!(Val.isSingle() && Val.single().O == StackValue::Origin::New))
        return Refuse("eager initialization is not a fresh allocation");
      NewPc = Val.single().DefPc;
      if (M.Code[NewPc].Op != Opcode::New)
        return Refuse("lazy allocation handles object fields only");
      Window = matchAllocWindow(P, M, SF, NewPc);
      if (!Window || Window->StorePc != Pc)
        return Refuse("eager initialization is not in removable shape");
      InitCtor = M.Id;
    }
  }
  if (!Window)
    return Refuse("no eager initialization found");

  MethodInfo &CtorM = P.methodOf(InitCtor);
  ClassId AllocClass(static_cast<std::uint32_t>(CtorM.Code[NewPc].A));
  MethodId ValueCtor(
      static_cast<std::uint32_t>(CtorM.Code[Window->CtorPc].A));
  if (!Ctx.EA.isStateIndependentCtor(ValueCtor))
    return Refuse(formatString(
        "constructor %s is not state-independent (params, reads, or "
        "catchable exceptions)",
        P.qualifiedMethodName(ValueCtor).c_str()));

  // The program must never test the field against null: after the
  // rewrite the accessor cannot return null.
  for (const MethodInfo &M : P.Methods) {
    if (M.IsNative)
      continue;
    StackFlow SF(P, M);
    for (std::uint32_t Pc = 0, N = static_cast<std::uint32_t>(M.Code.size());
         Pc != N; ++Pc) {
      const Instruction &I = M.Code[Pc];
      bool Tests = false;
      if (I.Op == Opcode::IfNull || I.Op == Opcode::IfNonNull)
        Tests = mayBeFieldRead(SF.operand(Pc, 0), F);
      else if (I.Op == Opcode::IfACmpEq || I.Op == Opcode::IfACmpNe)
        Tests = mayBeFieldRead(SF.operand(Pc, 0), F) ||
                mayBeFieldRead(SF.operand(Pc, 1), F);
      if (Tests)
        return Refuse("program tests the field against null");
    }
  }

  // Synthesize the private accessor  ref F$lazy(this).
  MethodInfo Acc;
  Acc.Id = MethodId(static_cast<std::uint32_t>(P.Methods.size()));
  Acc.Owner = Owner;
  Acc.Name = FI.Name + "$lazy";
  Acc.Ret = ValueKind::Ref;
  Acc.Vis = Visibility::Private;
  Acc.LocalKinds = {ValueKind::Ref};
  Acc.DeclLine = FI.DeclLine;
  std::uint32_t L = FI.DeclLine;
  Acc.Code = {
      makeInst(Opcode::ALoad, 0, L),
      makeInst(Opcode::GetField, static_cast<std::int32_t>(F.Index), L),
      makeInst(Opcode::IfNonNull, 8, L),
      makeInst(Opcode::ALoad, 0, L),
      makeInst(Opcode::New, static_cast<std::int32_t>(AllocClass.Index), L),
      makeInst(Opcode::Dup, 0, L),
      makeInst(Opcode::InvokeSpecial,
               static_cast<std::int32_t>(ValueCtor.Index), L),
      makeInst(Opcode::PutField, static_cast<std::int32_t>(F.Index), L),
      makeInst(Opcode::ALoad, 0, L),
      makeInst(Opcode::GetField, static_cast<std::int32_t>(F.Index), L),
      makeInst(Opcode::AReturn, 0, L),
  };
  // The verifier, not the pass, computes the accessor's MaxStack.
  P.Methods.push_back(Acc);
  std::string VErr;
  if (!verifyMethod(P, P.Methods.back(), VErr)) {
    P.Methods.pop_back();
    return Refuse("synthesized accessor does not verify: " + VErr);
  }
  P.classOf(Owner).DeclaredMethods.push_back(Acc.Id);

  // Remove the eager initialization.
  {
    MethodEditor Editor(P, P.methodOf(InitCtor));
    Editor.nopRange(Window->Begin, Window->StorePc + 1);
    Editor.apply();
  }

  // Guard every read: getfield F  ->  invokespecial F$lazy.
  LazifiedField Result;
  Result.Field = F;
  Result.Accessor = Acc.Id;
  Result.RemovedFromCtor = InitCtor;
  for (MethodInfo &M : P.Methods) {
    if (M.IsNative || M.Id == Acc.Id)
      continue;
    MethodEditor Editor(P, M);
    for (std::uint32_t Pc = 0, N = static_cast<std::uint32_t>(M.Code.size());
         Pc != N; ++Pc)
      if (M.Code[Pc].Op == Opcode::GetField &&
          static_cast<std::uint32_t>(M.Code[Pc].A) == F.Index) {
        Editor.replace(Pc, makeInst(Opcode::InvokeSpecial,
                                    static_cast<std::int32_t>(Acc.Id.Index),
                                    M.Code[Pc].Line));
        ++Result.GuardedReads;
      }
    Editor.apply();
  }

  Done.push_back(Result);
  return true;
}

std::uint32_t jdrag::transform::elideLazyGuards(Program &P,
                                                LazifiedField &L) {
  std::uint32_t Elided = 0;
  for (MethodInfo &M : P.Methods) {
    if (M.IsNative || M.Id == L.Accessor)
      continue;
    // Accessor call sites in this method.
    std::vector<std::uint32_t> Calls;
    for (std::uint32_t Pc = 0, N = static_cast<std::uint32_t>(M.Code.size());
         Pc != N; ++Pc)
      if (M.Code[Pc].Op == Opcode::InvokeSpecial &&
          static_cast<std::uint32_t>(M.Code[Pc].A) == L.Accessor.Index)
        Calls.push_back(Pc);
    if (Calls.size() < 2)
      continue;

    // Locals that are never reassigned: loads of such a slot always
    // yield the same object within one activation.
    std::uint64_t Stable = M.numLocals() <= 64
                               ? (M.numLocals() == 64
                                      ? ~0ull
                                      : (1ull << M.numLocals()) - 1)
                               : 0;
    for (const Instruction &I : M.Code)
      if (I.Op == Opcode::AStore && I.A < 64)
        Stable &= ~(1ull << static_cast<std::uint32_t>(I.A));

    StackFlow SF(P, M);
    sa::CFG G(M);
    sa::DominatorTree DT(G);

    auto StableReceiverSlot = [&](std::uint32_t Pc) -> std::int32_t {
      StackCell Recv = SF.operand(Pc, 0); // accessor takes no params
      if (!Recv.isSingle() ||
          Recv.single().O != StackValue::Origin::Local)
        return -1;
      std::int32_t Slot = Recv.single().Aux;
      if (Slot < 0 || Slot >= 64 || !((Stable >> Slot) & 1))
        return -1;
      return Slot;
    };

    MethodEditor Editor(P, M);
    for (std::uint32_t B : Calls) {
      std::int32_t SlotB = StableReceiverSlot(B);
      if (SlotB < 0)
        continue;
      for (std::uint32_t A : Calls) {
        if (A == B || StableReceiverSlot(A) != SlotB)
          continue;
        if (!DT.dominatesPc(A, B))
          continue;
        Instruction Plain;
        Plain.Op = Opcode::GetField;
        Plain.A = static_cast<std::int32_t>(L.Field.Index);
        Plain.Line = M.Code[B].Line;
        Editor.replace(B, Plain);
        ++Elided;
        break;
      }
    }
    Editor.apply();
  }
  L.ElidedGuards += Elided;
  return Elided;
}
