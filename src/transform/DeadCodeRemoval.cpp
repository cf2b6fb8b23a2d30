//===- transform/DeadCodeRemoval.cpp --------------------------------------===//

#include "transform/DeadCodeRemoval.h"

#include "support/Format.h"
#include "transform/AllocWindow.h"
#include "transform/MethodEditor.h"

using namespace jdrag;
using namespace jdrag::ir;
using namespace jdrag::sa;
using namespace jdrag::transform;

bool jdrag::transform::removeDeadAllocation(
    Program &P, const PassContext &Ctx, MethodId M, std::uint32_t NewPc,
    std::vector<RemovedAllocation> &Removed, std::string *Why) {
  auto Refuse = [&](const std::string &Reason) {
    if (Why)
      *Why = Reason;
    return false;
  };

  if (!Ctx.CG.isReachable(M))
    return Refuse("method is unreachable");
  MethodInfo &MI = P.methodOf(M);
  if (NewPc >= MI.Code.size())
    return Refuse("pc out of range");
  Opcode Op = MI.Code[NewPc].Op;
  if (Op != Opcode::New && Op != Opcode::NewArray)
    return Refuse("not an allocation instruction");

  if (!Ctx.VFA.isAllocationDead(M, NewPc))
    return Refuse("object may be used (usage/indirect-usage analysis)");

  StackFlow SF(P, MI);
  std::optional<AllocWindow> W = matchAllocWindow(P, MI, SF, NewPc);
  if (!W)
    return Refuse("allocation is not in removable shape");

  if (W->hasCtor()) {
    MethodId Ctor(static_cast<std::uint32_t>(MI.Code[W->CtorPc].A));
    if (!Ctx.EA.isRemovableCtor(Ctor))
      return Refuse(formatString(
          "constructor %s has observable effects or catchable exceptions",
          P.qualifiedMethodName(Ctor).c_str()));
  } else {
    // Arrays: only OOM is possible; require it to be uncatchable.
    if (Ctx.EA.programHasHandlerFor(P.OOMClass))
      return Refuse("program catches OutOfMemoryError");
  }

  MethodEditor Editor(P, MI);
  Editor.nopRange(W->Begin, W->StorePc + 1);
  Editor.apply();
  Removed.push_back({M, NewPc, W->Begin, W->StorePc});
  return true;
}

std::vector<RemovedAllocation>
jdrag::transform::removeAllDeadAllocations(Program &P,
                                           const PassContext &Ctx) {
  std::vector<RemovedAllocation> Removed;
  for (const AllocSiteInfo &A : Ctx.VFA.allocations()) {
    if (P.classOf(P.methodOf(A.Method).Owner).IsLibrary)
      continue;
    removeDeadAllocation(P, Ctx, A.Method, A.Pc, Removed);
  }
  return Removed;
}
