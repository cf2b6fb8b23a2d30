//===- ir/Verifier.h - Bytecode verification --------------------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An abstract-interpretation bytecode verifier in the spirit of the JVM
/// verifier: it checks operand validity, local-slot kind agreement, and
/// simulates the operand stack (depth and kinds) over all paths, requiring
/// consistent stack states at merge points. As a side effect it computes
/// each method's MaxStack. Both the interpreter and the transformation
/// passes rely on verified programs; passes re-verify their output.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_IR_VERIFIER_H
#define JDRAG_IR_VERIFIER_H

#include "ir/Program.h"

#include <string>

namespace jdrag::ir {

/// Verifies one method; appends messages to \p Err. Returns true on
/// success. Sets \p M's MaxStack: the computed bound on success,
/// UnverifiedMaxStack on failure.
bool verifyMethod(const Program &P, MethodInfo &M, std::string &Err);

/// Verifies every method plus whole-program invariants (main present,
/// supers-first class order). Returns true on success; on failure \p Err
/// (if non-null) receives newline-separated diagnostics.
bool verifyProgram(Program &P, std::string *Err = nullptr);

} // namespace jdrag::ir

#endif // JDRAG_IR_VERIFIER_H
