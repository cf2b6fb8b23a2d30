//===- transform/MethodEditor.cpp -----------------------------------------===//

#include "transform/MethodEditor.h"

#include "ir/Verifier.h"

#include <cassert>

using namespace jdrag;
using namespace jdrag::ir;
using namespace jdrag::transform;

MethodEditor::MethodEditor(const Program &P, MethodInfo &M) : P(P), M(M) {
  InsertsBefore.resize(M.Code.size() + 1);
}

void MethodEditor::insertBefore(std::uint32_t Pc,
                                std::vector<Instruction> Insts) {
  assert(Pc < InsertsBefore.size() && "insertion point out of range");
  for (const Instruction &I : Insts)
    assert(!isBranch(I.Op) && "inserted instructions must not branch");
  auto &Slot = InsertsBefore[Pc];
  Slot.insert(Slot.end(), Insts.begin(), Insts.end());
  Dirty = true;
}

void MethodEditor::insertAfter(std::uint32_t Pc,
                               std::vector<Instruction> Insts) {
  assert(Pc < M.Code.size() && "pc out of range");
  assert(!isBranch(M.Code[Pc].Op) &&
         !isUnconditionalTerminator(M.Code[Pc].Op) &&
         "cannot insert after a control transfer");
  insertBefore(Pc + 1, std::move(Insts));
}

void MethodEditor::nopRange(std::uint32_t Begin, std::uint32_t End) {
  assert(Begin <= End && End <= M.Code.size() && "bad nop range");
  for (std::uint32_t Pc = Begin; Pc != End; ++Pc) {
    Instruction &I = M.Code[Pc];
    I.Op = Opcode::Nop;
    I.A = 0;
    I.IVal = 0;
    I.DVal = 0;
  }
  Dirty = true;
}

void MethodEditor::replace(std::uint32_t Pc, Instruction NewInst) {
  assert(Pc < M.Code.size() && "pc out of range");
  M.Code[Pc] = NewInst;
  Dirty = true;
}

bool MethodEditor::apply() {
  if (!Dirty)
    return true;
  Dirty = false;
  bool AnyInserts = false;
  for (const auto &Slot : InsertsBefore)
    if (!Slot.empty()) {
      AnyInserts = true;
      break;
    }
  // Nop and same-length replacements are in place: nothing to remap, but
  // they can still change the stack depth.
  if (AnyInserts)
    rebuild();
  std::string Err;
  return ir::verifyMethod(P, M, Err);
}

void MethodEditor::rebuild() {
  std::uint32_t N = static_cast<std::uint32_t>(M.Code.size());

  // TargetMap[X]: new pc a branch to old X lands on (first inserted
  // instruction before X). InstMap[X]: new pc of the original instruction.
  std::vector<std::uint32_t> TargetMap(N + 1, 0);
  std::vector<Instruction> NewCode;
  NewCode.reserve(N + 16);
  for (std::uint32_t Pc = 0; Pc != N; ++Pc) {
    TargetMap[Pc] = static_cast<std::uint32_t>(NewCode.size());
    for (const Instruction &I : InsertsBefore[Pc])
      NewCode.push_back(I);
    NewCode.push_back(M.Code[Pc]);
  }
  TargetMap[N] = static_cast<std::uint32_t>(NewCode.size());
  for (const Instruction &I : InsertsBefore[N])
    NewCode.push_back(I);

  // Remap branch targets. Inserted instructions are never branches, and
  // original instructions keep their relative order, so scanning NewCode
  // and remapping every branch A is safe.
  for (Instruction &I : NewCode)
    if (isBranch(I.Op))
      I.A = static_cast<std::int32_t>(
          TargetMap[static_cast<std::uint32_t>(I.A)]);

  for (ExceptionHandler &H : M.Handlers) {
    H.Start = TargetMap[H.Start];
    H.End = TargetMap[H.End];
    H.Target = TargetMap[H.Target];
  }

  M.Code = std::move(NewCode);
  InsertsBefore.assign(M.Code.size() + 1, {});
}
