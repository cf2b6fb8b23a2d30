//===- transform/MethodEditor.h - Bytecode editing with remap ---*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Applies insertions and nop-replacements to a method body, remapping
/// branch targets and exception-handler ranges, then re-verifies the
/// method so its MaxStack stays the bound the interpreter sizes frames
/// from. All transformation passes edit code through this class so pc
/// and stack bookkeeping live in one place.
///
/// Branch targets pointing at pc X are redirected to the first
/// instruction inserted before X; this is what the assign-null pass
/// needs (liveness guarantees the nulled slot is dead at X along every
/// path, so executing the inserted store on jump-in edges is safe).
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_TRANSFORM_METHODEDITOR_H
#define JDRAG_TRANSFORM_METHODEDITOR_H

#include "ir/Program.h"

#include <vector>

namespace jdrag::transform {

/// Collects edits against one method and applies them atomically.
class MethodEditor {
public:
  /// Edits \p M, a method of \p P (the verifier resolves the callees and
  /// fields the edited code names against \p P).
  MethodEditor(const ir::Program &P, ir::MethodInfo &M);

  /// Queues \p Insts to execute immediately before \p Pc (\p Pc may be
  /// Code.size() to append at the end). Inserted instructions must not be
  /// branches; their Line fields are preserved.
  void insertBefore(std::uint32_t Pc, std::vector<ir::Instruction> Insts);

  /// Queues \p Insts to execute immediately after \p Pc (the instruction
  /// at \p Pc must not be a branch or terminator for this to make sense;
  /// asserted).
  void insertAfter(std::uint32_t Pc, std::vector<ir::Instruction> Insts);

  /// Replaces every instruction in [\p Begin, \p End) with Nop.
  void nopRange(std::uint32_t Begin, std::uint32_t End);

  /// Replaces the single instruction at \p Pc (same-length edit; the
  /// replacement may not be a branch unless the original was one with
  /// the same target semantics).
  void replace(std::uint32_t Pc, ir::Instruction NewInst);

  /// True if any edit is queued.
  bool hasEdits() const { return Dirty; }

  /// Rebuilds the method body, fixing branch targets and handlers, and
  /// re-verifies it (ir::verifyMethod), which recomputes MaxStack. Returns
  /// false when the edited method does not verify; its MaxStack is then
  /// ir::UnverifiedMaxStack and the interpreter refuses to run it.
  bool apply();

private:
  /// Splices the queued insertions in and remaps branches and handlers.
  void rebuild();

  const ir::Program &P;
  ir::MethodInfo &M;
  std::vector<std::vector<ir::Instruction>> InsertsBefore; ///< size N+1
  bool Dirty = false;
};

} // namespace jdrag::transform

#endif // JDRAG_TRANSFORM_METHODEDITOR_H
