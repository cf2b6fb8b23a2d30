//===- vm/Events.h - VM event vocabulary ------------------------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared vocabulary of the VM's instrumentation events. The events are
/// the exact set the paper's instrumented JVM hooks -- object creation,
/// the five kinds of object use (getfield, putfield, invocation, monitor
/// enter/exit, native handle dereference; we add array element access,
/// which dereferences the array's handle), GC completion, object
/// reclamation, and end-of-program survivor enumeration. Creation and
/// uses update the object's trailer on its HeapObject (vm/Heap.h); the
/// rest the VM streams through EventEmitter (vm/EventEmitter.h), a
/// reclaimed or surviving object's record carrying its trailer. UseKind
/// names the kinds of use; only the legacy streams (v2-v7) record it.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_VM_EVENTS_H
#define JDRAG_VM_EVENTS_H

#include "ir/Ids.h"
#include "support/Units.h"
#include "vm/Value.h"

namespace jdrag::vm {

/// One frame of a captured call chain (innermost first).
struct CallFrameRef {
  ir::MethodId Method;
  std::uint32_t Pc = 0;
  std::uint32_t Line = 0;
};

/// Why an object was used (paper section 2.1.1's five event kinds; array
/// element access is a handle dereference of the array).
enum class UseKind : std::uint8_t {
  GetField,
  PutField,
  Invoke,
  Monitor,
  ArrayAccess,
  NativeDeref,
  Throw,
};

/// Number of UseKind enumerators; keep in sync with the enum (and with
/// useKindName's table, which static_asserts against this).
inline constexpr std::size_t NumUseKinds = 7;
static_assert(static_cast<std::size_t>(UseKind::Throw) + 1 == NumUseKinds,
              "update NumUseKinds (and useKindName) when adding a UseKind");

const char *useKindName(UseKind K);

} // namespace jdrag::vm

#endif // JDRAG_VM_EVENTS_H
