//===- ir/Program.h - Classes, fields, methods, programs --------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static program model: a closed world of classes (single
/// inheritance from Object), fields, methods with bytecode bodies and
/// exception tables, and native method declarations. Programs are built
/// with ProgramBuilder and are immutable afterwards except through the
/// transformation passes in jdrag::transform.
///
/// Heap accounting follows the paper's instrumented Sun JVM 1.2: an
/// object's length includes an 8-byte header and the padding needed to
/// align the allocation on an 8-byte boundary, and excludes the handle
/// and the profiling trailer (section 2.1.1).
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_IR_PROGRAM_H
#define JDRAG_IR_PROGRAM_H

#include "ir/Ids.h"
#include "ir/Instruction.h"
#include "ir/Type.h"

#include <cassert>
#include <string>
#include <vector>

namespace jdrag::ir {

/// Java-style access visibility; Table 5 of the paper classifies the
/// rewritten references by this kind.
enum class Visibility : std::uint8_t { Private, Package, Protected, Public };

const char *visibilityName(Visibility V);

/// Accounted header size of a plain object.
inline constexpr std::uint32_t ObjectHeaderBytes = 8;
/// Accounted header size of an array (header + 4-byte length).
inline constexpr std::uint32_t ArrayHeaderBytes = 12;

/// Rounds \p Bytes up to the next 8-byte boundary (allocation alignment).
inline constexpr std::uint32_t alignTo8(std::uint32_t Bytes) {
  return (Bytes + 7u) & ~7u;
}

/// A field declaration. Instance fields get a slot in the object layout;
/// static fields get a global slot in the VM's statics area.
struct FieldInfo {
  FieldId Id;
  ClassId Owner;
  std::string Name;
  ValueKind Kind = ValueKind::Int;
  bool IsStatic = false;
  bool IsFinal = false;
  Visibility Vis = Visibility::Public;
  std::uint32_t Slot = 0; ///< instance slot index, or static slot index
  std::uint32_t DeclLine = 0;
};

/// An exception handler range ([Start, End) in pc space, JVM style).
struct ExceptionHandler {
  std::uint32_t Start = 0;
  std::uint32_t End = 0;    ///< exclusive
  std::uint32_t Target = 0; ///< handler entry pc
  ClassId CatchType;        ///< invalid = catch-all
};

/// MethodInfo::MaxStack of a method the verifier has not accepted. The
/// interpreter sizes each frame's operand stack from MaxStack, so it
/// refuses to push a frame for such a method.
inline constexpr std::uint32_t UnverifiedMaxStack = ~0u;

/// A method. Instance methods take the receiver in local slot 0; explicit
/// parameters follow in declaration order. LocalKinds covers all local
/// slots (parameters included) so analyses know which slots hold
/// references without per-point type inference.
struct MethodInfo {
  MethodId Id;
  ClassId Owner;
  std::string Name;
  std::vector<ValueKind> Params; ///< excluding the receiver
  ValueKind Ret = ValueKind::Void;
  bool IsStatic = false;
  Visibility Vis = Visibility::Public;
  bool IsNative = false;
  NativeId Native;
  bool IsConstructor = false;
  bool IsFinalizer = false;
  std::int32_t VTableSlot = -1; ///< >= 0 for virtually dispatched methods
  std::vector<ValueKind> LocalKinds;
  std::vector<Instruction> Code;
  std::vector<ExceptionHandler> Handlers;
  /// Deepest operand stack on any path, handler entries included;
  /// computed by the Verifier (verifyMethod), UnverifiedMaxStack until
  /// it accepts the method.
  std::uint32_t MaxStack = UnverifiedMaxStack;
  std::uint32_t DeclLine = 0;

  /// Number of parameter slots including the receiver, if any.
  std::uint32_t numParamSlots() const {
    return static_cast<std::uint32_t>(Params.size()) + (IsStatic ? 0u : 1u);
  }
  std::uint32_t numLocals() const {
    return static_cast<std::uint32_t>(LocalKinds.size());
  }
};

/// A class. Single inheritance; Object is the root and has an invalid
/// Super id. IsLibrary distinguishes JDK-like support code from
/// application code for the anchor-allocation-site walk (paper
/// section 3.4).
struct ClassInfo {
  ClassId Id;
  std::string Name;
  ClassId Super; ///< invalid for the root class
  bool IsLibrary = false;
  std::vector<FieldId> DeclaredInstanceFields;
  std::vector<FieldId> DeclaredStaticFields;
  std::vector<MethodId> DeclaredMethods;
  std::uint32_t NumInstanceSlots = 0;         ///< including inherited
  std::uint32_t InstanceAccountedBytes = 0;   ///< aligned, incl. header
  std::vector<MethodId> VTable;               ///< resolved dispatch table
  MethodId Finalizer;                         ///< invalid if none in chain
  std::uint32_t DeclLine = 0;
};

/// A native method registration point: the VM binds these names to C++
/// callbacks at run time.
struct NativeInfo {
  NativeId Id;
  std::string Name;
  std::vector<ValueKind> Params;
  ValueKind Ret = ValueKind::Void;
};

/// A whole closed-world program.
class Program {
public:
  std::vector<ClassInfo> Classes;
  std::vector<FieldInfo> Fields;
  std::vector<MethodInfo> Methods;
  std::vector<NativeInfo> Natives;

  ClassId ObjectClass;   ///< root of the hierarchy
  ClassId ThrowableClass;///< root of throwables
  ClassId OOMClass;      ///< OutOfMemoryError (paper section 3.3.3)
  MethodId MainMethod;   ///< static entry point
  std::uint32_t NumStaticSlots = 0;

  const ClassInfo &classOf(ClassId Id) const {
    assert(Id.isValid() && Id.Index < Classes.size() && "bad class id");
    return Classes[Id.Index];
  }
  ClassInfo &classOf(ClassId Id) {
    assert(Id.isValid() && Id.Index < Classes.size() && "bad class id");
    return Classes[Id.Index];
  }
  const FieldInfo &fieldOf(FieldId Id) const {
    assert(Id.isValid() && Id.Index < Fields.size() && "bad field id");
    return Fields[Id.Index];
  }
  const MethodInfo &methodOf(MethodId Id) const {
    assert(Id.isValid() && Id.Index < Methods.size() && "bad method id");
    return Methods[Id.Index];
  }
  MethodInfo &methodOf(MethodId Id) {
    assert(Id.isValid() && Id.Index < Methods.size() && "bad method id");
    return Methods[Id.Index];
  }
  const NativeInfo &nativeOf(NativeId Id) const {
    assert(Id.isValid() && Id.Index < Natives.size() && "bad native id");
    return Natives[Id.Index];
  }

  /// True if \p Sub equals \p Super or derives from it.
  bool isSubclassOf(ClassId Sub, ClassId Super) const;

  /// Finds a class by name; returns an invalid id if absent.
  ClassId findClass(std::string_view Name) const;

  /// Finds a method declared *in* \p C (not inherited) by name.
  MethodId findDeclaredMethod(ClassId C, std::string_view Name) const;

  /// Finds a method by name along the superclass chain of \p C.
  MethodId findMethod(ClassId C, std::string_view Name) const;

  /// Finds a field (instance or static) by name along the chain of \p C.
  FieldId findField(ClassId C, std::string_view Name) const;

  /// "Class.method" for reports.
  std::string qualifiedMethodName(MethodId Id) const;

  /// "Class.field" for reports.
  std::string qualifiedFieldName(FieldId Id) const;

  /// Accounted byte size of an array allocation.
  static std::uint32_t arrayAccountedBytes(ArrayKind K, std::uint32_t Len) {
    return alignTo8(ArrayHeaderBytes + elementBytes(K) * Len);
  }

  /// Total instruction count, optionally restricted to application
  /// (non-library) classes. Stands in for Table 1's statement counts.
  std::uint64_t countInstructions(bool ApplicationOnly) const;

  /// Number of classes, optionally restricted to application classes.
  std::uint32_t countClasses(bool ApplicationOnly) const;
};

} // namespace jdrag::ir

#endif // JDRAG_IR_PROGRAM_H
