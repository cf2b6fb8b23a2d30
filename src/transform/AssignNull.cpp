//===- transform/AssignNull.cpp -------------------------------------------===//

#include "transform/AssignNull.h"

#include "sa/CFG.h"
#include "sa/Liveness.h"
#include "sa/StackFlow.h"
#include "support/Format.h"
#include "transform/MethodEditor.h"

#include <set>

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

} // namespace

std::vector<InsertedNull> jdrag::transform::nullifyDeadLocals(Program &P,
                                                              MethodId M) {
  std::vector<InsertedNull> Out;
  MethodInfo &MI = P.methodOf(M);
  if (MI.IsNative || MI.numLocals() > 64)
    return Out;
  std::uint32_t N = static_cast<std::uint32_t>(MI.Code.size());

  LivenessAnalysis LA(P, MI);

  // Predecessors over all edges (normal and exceptional).
  std::vector<std::vector<std::uint32_t>> Preds(N);
  std::vector<std::uint32_t> Succs;
  for (std::uint32_t Pc = 0; Pc != N; ++Pc) {
    Succs.clear();
    normalSuccessors(MI, Pc, Succs);
    exceptionalSuccessors(MI, Pc, Succs);
    for (std::uint32_t S : Succs)
      if (S < N)
        Preds[S].push_back(Pc);
  }

  // A slot is nulled at every live->dead boundary: instruction P where
  // the slot is dead on entry but live on entry to some predecessor (the
  // predecessor was its last use). This covers straight-line last uses
  // and loop exits alike -- inserting before P is safe on every inbound
  // edge because deadness at P is path-insensitive.
  MethodEditor Editor(P, MI);
  for (std::uint32_t Slot = 0, E = MI.numLocals(); Slot != E; ++Slot) {
    if (MI.LocalKinds[Slot] != ValueKind::Ref)
      continue;
    for (std::uint32_t Pc = 0; Pc != N; ++Pc) {
      if (LA.isLiveIn(Pc, Slot))
        continue;
      bool PredWasLive = false;
      for (std::uint32_t Q : Preds[Pc])
        if (LA.isLiveIn(Q, Slot))
          PredWasLive = true;
      if (!PredWasLive)
        continue;
      const Instruction &I = MI.Code[Pc];
      // Pointless insertions: the frame dies immediately, or the slot is
      // about to be overwritten anyway.
      if (isReturn(I.Op))
        continue;
      if (I.Op == Opcode::AStore && static_cast<std::uint32_t>(I.A) == Slot)
        continue;
      // Idempotence: a null store of this slot is already in place at
      // this boundary (several slots may share one boundary, producing a
      // run of `aconst_null; astore` pairs).
      bool AlreadyNulled = false;
      for (std::uint32_t Q = Pc;
           Q + 1 < N && MI.Code[Q].Op == Opcode::AConstNull &&
           MI.Code[Q + 1].Op == Opcode::AStore;
           Q += 2)
        if (static_cast<std::uint32_t>(MI.Code[Q + 1].A) == Slot) {
          AlreadyNulled = true;
          break;
        }
      if (AlreadyNulled)
        continue;
      std::uint32_t Line = I.Line;
      Editor.insertBefore(Pc, {makeInst(Opcode::AConstNull, 0, Line),
                               makeInst(Opcode::AStore,
                                        static_cast<std::int32_t>(Slot),
                                        Line)});
      InsertedNull R;
      R.K = InsertedNull::Kind::Local;
      R.Method = M;
      R.AfterPc = Pc;
      R.Slot = Slot;
      Out.push_back(R);
    }
  }
  Editor.apply();
  return Out;
}

std::vector<InsertedNull>
jdrag::transform::nullifyDeadLocalsEverywhere(Program &P,
                                              const PassContext &Ctx) {
  std::vector<InsertedNull> Out;
  for (MethodId M : Ctx.CG.reachableMethods()) {
    if (P.classOf(P.methodOf(M).Owner).IsLibrary)
      continue;
    auto Ins = nullifyDeadLocals(P, M);
    Out.insert(Out.end(), Ins.begin(), Ins.end());
  }
  return Out;
}

bool jdrag::transform::nullifyStaticAfter(Program &P, const PassContext &Ctx,
                                          FieldId F, std::uint32_t AfterPc,
                                          std::vector<InsertedNull> &Inserted,
                                          std::string *Why) {
  auto Refuse = [&](const std::string &Reason) {
    if (Why)
      *Why = Reason;
    return false;
  };

  const FieldInfo &FI = P.fieldOf(F);
  if (!FI.IsStatic || FI.Kind != ValueKind::Ref)
    return Refuse("field is not a static reference");
  MethodId Main = P.MainMethod;
  MethodInfo &MI = P.methodOf(Main);
  if (AfterPc >= MI.Code.size())
    return Refuse("insertion point out of range");
  const Instruction &At = MI.Code[AfterPc];
  if (isBranch(At.Op) || isUnconditionalTerminator(At.Op))
    return Refuse("cannot insert after a control transfer");

  // Forward-reachable code: methods callable from main after AfterPc,
  // plus every reachable finalizer (finalizers can run at any GC).
  std::set<std::uint32_t> Reach;
  std::vector<MethodId> Worklist;
  auto Push = [&](MethodId M) {
    if (M.isValid() && Reach.insert(M.Index).second)
      Worklist.push_back(M);
  };
  for (const CallSite &CS : Ctx.CG.callSitesIn(Main))
    if (CS.Pc > AfterPc)
      for (MethodId T : Ctx.CG.targetsOf(Main, CS.Pc))
        Push(T);
  for (MethodId M : Ctx.CG.reachableMethods())
    if (P.methodOf(M).IsFinalizer)
      Push(M);
  while (!Worklist.empty()) {
    MethodId M = Worklist.back();
    Worklist.pop_back();
    for (const CallSite &CS : Ctx.CG.callSitesIn(M))
      for (MethodId T : Ctx.CG.targetsOf(M, CS.Pc))
        Push(T);
  }

  // No read of F may execute after the insertion point.
  auto ReadsF = [&](const MethodInfo &M, std::uint32_t FromPc) {
    for (std::uint32_t Pc = FromPc,
                       N = static_cast<std::uint32_t>(M.Code.size());
         Pc != N; ++Pc)
      if (M.Code[Pc].Op == Opcode::GetStatic &&
          static_cast<std::uint32_t>(M.Code[Pc].A) == F.Index)
        return true;
    return false;
  };
  if (ReadsF(MI, AfterPc + 1))
    return Refuse("main itself reads the field after the insertion point");
  for (std::uint32_t MIdx : Reach)
    if (ReadsF(P.Methods[MIdx], 0))
      return Refuse(formatString(
          "field is read in forward-reachable method %s",
          P.qualifiedMethodName(MethodId(MIdx)).c_str()));

  std::uint32_t Line = At.Line;
  MethodEditor Editor(P, MI);
  Editor.insertAfter(AfterPc,
                     {makeInst(Opcode::AConstNull, 0, Line),
                      makeInst(Opcode::PutStatic,
                               static_cast<std::int32_t>(F.Index), Line)});
  Editor.apply();

  InsertedNull R;
  R.K = InsertedNull::Kind::StaticField;
  R.Method = Main;
  R.AfterPc = AfterPc;
  R.Field = F;
  Inserted.push_back(R);
  return true;
}

std::vector<InsertedNull> jdrag::transform::nullifyPoppedArrayElements(
    Program &P, ClassId Owner, FieldId ArrayField, FieldId SizeField,
    std::string *Why) {
  std::vector<InsertedNull> Out;
  const ClassInfo &C = P.classOf(Owner);

  // Resolve the size field when not named: the unique int instance field
  // of Owner that is decremented by one somewhere in the class.
  auto IsDecrementOf = [&](const MethodInfo &M, const StackFlow &SF,
                           std::uint32_t Pc, FieldId F) {
    const Instruction &I = M.Code[Pc];
    if (I.Op != Opcode::PutField ||
        static_cast<std::uint32_t>(I.A) != F.Index)
      return false;
    // Receiver must be `this`.
    StackCell Recv = SF.operand(Pc, 1);
    if (!(Recv.isSingle() && Recv.single().O == StackValue::Origin::Local &&
          Recv.single().Aux == 0))
      return false;
    // Value must come from `this.F - 1`.
    StackCell Val = SF.operand(Pc, 0);
    if (!(Val.isSingle() && Val.single().O == StackValue::Origin::Const))
      return false;
    std::uint32_t SubPc = Val.single().DefPc;
    if (M.Code[SubPc].Op != Opcode::ISub)
      return false;
    StackCell A = SF.operand(SubPc, 1), B = SF.operand(SubPc, 0);
    bool AIsField = A.isSingle() &&
                    A.single().O == StackValue::Origin::Field &&
                    static_cast<std::uint32_t>(A.single().Aux) == F.Index;
    bool BIsOne = B.isSingle() &&
                  B.single().O == StackValue::Origin::Const &&
                  M.Code[B.single().DefPc].Op == Opcode::IConst &&
                  M.Code[B.single().DefPc].IVal == 1;
    return AIsField && BIsOne;
  };

  if (!SizeField.isValid()) {
    for (FieldId F : C.DeclaredInstanceFields) {
      if (P.fieldOf(F).Kind != ValueKind::Int)
        continue;
      for (MethodId M : C.DeclaredMethods) {
        const MethodInfo &MI = P.methodOf(M);
        if (MI.IsNative)
          continue;
        StackFlow SF(P, MI);
        for (std::uint32_t Pc = 0,
                           N = static_cast<std::uint32_t>(MI.Code.size());
             Pc != N; ++Pc)
          if (IsDecrementOf(MI, SF, Pc, F)) {
            if (SizeField.isValid() && SizeField != F) {
              if (Why)
                *Why = "multiple decremented int fields; name one";
              return Out;
            }
            SizeField = F;
          }
      }
    }
    if (!SizeField.isValid()) {
      if (Why)
        *Why = "no decremented int field found in class";
      return Out;
    }
  }

  for (MethodId M : C.DeclaredMethods) {
    MethodInfo &MI = P.methodOf(M);
    if (MI.IsNative || MI.IsStatic)
      continue;
    // The inserted fix re-loads `this` from slot 0, so the slot must
    // still hold the receiver at every program point (a prior
    // assigning-null pass may have nulled a dead `this`).
    bool ThisStable = true;
    for (const Instruction &I : MI.Code)
      if (I.Op == Opcode::AStore && I.A == 0)
        ThisStable = false;
    if (!ThisStable)
      continue;
    StackFlow SF(P, MI);
    MethodEditor Editor(P, MI);
    for (std::uint32_t Pc = 0, N = static_cast<std::uint32_t>(MI.Code.size());
         Pc != N; ++Pc) {
      if (!IsDecrementOf(MI, SF, Pc, SizeField))
        continue;
      std::uint32_t Line = MI.Code[Pc].Line;
      // this.arr[this.size] = null  (the popped slot is now dead; the
      // container invariant 0 <= size < arr.length after a pop makes the
      // store in-bounds -- the array-liveness analysis of [CC 2000]).
      Editor.insertAfter(
          Pc, {makeInst(Opcode::ALoad, 0, Line),
               makeInst(Opcode::GetField,
                        static_cast<std::int32_t>(ArrayField.Index), Line),
               makeInst(Opcode::ALoad, 0, Line),
               makeInst(Opcode::GetField,
                        static_cast<std::int32_t>(SizeField.Index), Line),
               makeInst(Opcode::AConstNull, 0, Line),
               makeInst(Opcode::AAStore, 0, Line)});
      InsertedNull R;
      R.K = InsertedNull::Kind::ArrayElement;
      R.Method = M;
      R.AfterPc = Pc;
      R.Field = ArrayField;
      Out.push_back(R);
    }
    Editor.apply();
  }
  if (Out.empty() && Why)
    *Why = "no size-decrement sites found";
  return Out;
}
