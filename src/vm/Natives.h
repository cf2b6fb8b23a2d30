//===- vm/Natives.h - Native method interface -------------------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Native methods are C++ callbacks bound by name. NativeContext::deref
/// models the paper's fifth object-use kind: "dereferencing a handle to
/// that object ... since manipulating a Java object in native code is
/// done through a handle" (section 2.1.1).
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_VM_NATIVES_H
#define JDRAG_VM_NATIVES_H

#include "vm/Value.h"

#include <functional>
#include <span>

namespace jdrag::vm {

class Interpreter;
class HeapObject;

/// Execution context handed to a native callback.
class NativeContext {
public:
  NativeContext(Interpreter &Interp, std::span<const Value> Args)
      : Interp(Interp), Args(Args) {}

  std::span<const Value> args() const { return Args; }

  /// Dereferences \p H from native code, which counts as a use of the
  /// object (a native handle dereference). \p H must be non-null and
  /// live.
  HeapObject &deref(Handle H);

  Interpreter &interpreter() { return Interp; }

private:
  Interpreter &Interp;
  std::span<const Value> Args;
};

/// A native implementation. The returned value's kind must match the
/// declared return kind (ignored for void natives).
using NativeFn = std::function<Value(NativeContext &)>;

} // namespace jdrag::vm

#endif // JDRAG_VM_NATIVES_H
