//===- tests/RandomProgram.h - Type-safe random program generator -*- C++ -*-===//
//
// Part of jdrag test suite.
//
// Generates random verifiable programs for property testing: a pool of
// classes with int/ref fields and pure constructors, and a main built
// from randomly chosen type-correct productions (arithmetic, locals,
// objects, arrays, counted loops, output). The generator tracks the
// abstract stack and local nullness so generated programs never trap
// (no null dereferences, no out-of-bounds, no division by zero) and
// always terminate.
//
//===----------------------------------------------------------------------===//

#ifndef JDRAG_TESTS_RANDOMPROGRAM_H
#define JDRAG_TESTS_RANDOMPROGRAM_H

#include "ir/ProgramBuilder.h"
#include "ir/Verifier.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <vector>

namespace jdrag::testutil {

/// Builds a random program from \p Seed and verifies it. The program
/// reads no inputs and emits at least one checksum through
/// jdrag.emitResult.
inline ir::Program buildRandomProgram(std::uint64_t Seed) {
  using namespace ir;
  SplitMix64 Rng(Seed);
  ProgramBuilder PB;
  auto EmitN =
      PB.declareNative("jdrag.emitResult", {ValueKind::Int}, ValueKind::Void);
  ClassBuilder Sys = PB.beginClass("Sys", PB.objectClass(), true);
  MethodId Emit = Sys.addNativeMethod("emit", EmitN);

  // Class pool: 2-4 classes in an inheritance chain (C1 extends C0,
  // ...), each with one int field, one ref field, a pure constructor
  // taking an int, and a virtual tag() that deeper classes override.
  struct ClassDesc {
    ClassId Id;
    FieldId IntField, RefField;
    MethodId Ctor;
    MethodId Tag;
  };
  std::vector<ClassDesc> Pool;
  std::size_t NumClasses = 2 + Rng.nextBelow(3);
  for (std::size_t C = 0; C != NumClasses; ++C) {
    ClassBuilder CB = PB.beginClass(
        "C" + std::to_string(C),
        C == 0 ? PB.objectClass() : Pool[C - 1].Id);
    ClassDesc D;
    D.Id = CB.id();
    D.IntField = CB.addField("iv" + std::to_string(C), ValueKind::Int);
    D.RefField = CB.addField("rv" + std::to_string(C), ValueKind::Ref);
    MethodBuilder Ctor =
        CB.beginMethod("<init>", {ValueKind::Int}, ValueKind::Void);
    if (C == 0) {
      Ctor.aload(0).invokespecial(PB.objectCtor());
    } else {
      // Chain to the super constructor, forwarding the int parameter.
      Ctor.aload(0).iload(1).invokespecial(Pool[C - 1].Ctor);
    }
    Ctor.aload(0).iload(1).putfield(D.IntField);
    Ctor.ret();
    Ctor.finish();
    D.Ctor = Ctor.id();
    // Virtual tag(): iv * (C+2) -- overridden down the chain.
    MethodBuilder Tag = CB.beginMethod("tag", {}, ValueKind::Int);
    Tag.aload(0).getfield(D.IntField);
    Tag.iconst(static_cast<std::int64_t>(C + 2)).imul().iret();
    Tag.finish();
    D.Tag = Tag.id();
    Pool.push_back(D);
  }
  // A throwable for the try/catch production.
  ClassBuilder ExC = PB.beginClass("Ex", PB.throwableClass());
  MethodBuilder ExCtor = ExC.beginMethod("<init>", {}, ValueKind::Void);
  ExCtor.aload(0)
      .invokespecial(
          PB.program().findDeclaredMethod(PB.throwableClass(), "<init>"))
      .ret();
  ExCtor.finish();
  ClassId Ex = ExC.id();
  MethodId ExInit = ExCtor.id();

  ClassBuilder MainC = PB.beginClass("Main", PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void,
                                      /*IsStatic=*/true);

  // Locals: ints, a known-length int array slot, and per-class ref slots
  // with nonnull tracking.
  std::vector<std::uint32_t> IntLocals;
  for (int I = 0; I != 3; ++I)
    IntLocals.push_back(M.newLocal(ValueKind::Int));
  struct RefLocal {
    std::uint32_t Slot;
    std::size_t ClassIdx;
    bool NonNull = false;
  };
  std::vector<RefLocal> RefLocals;
  for (std::size_t C = 0; C != Pool.size(); ++C)
    RefLocals.push_back({M.newLocal(ValueKind::Ref), C, false});
  std::uint32_t ArrLocal = M.newLocal(ValueKind::Ref);
  constexpr std::int64_t ArrLen = 16;
  M.stmt();
  M.iconst(ArrLen).newarray(ArrayKind::Int).astore(ArrLocal);

  // Abstract int-stack depth (we only keep ints on the stack between
  // productions; refs are consumed within one production).
  std::uint32_t Depth = 0;
  auto PushInt = [&] {
    M.iconst(static_cast<std::int64_t>(Rng.nextBelow(1000)));
    ++Depth;
  };

  auto EmitProduction = [&](auto &&Self, std::uint32_t Budget) -> void {
    if (Budget == 0)
      return;
    switch (Rng.nextBelow(14)) {
    case 0: // push a constant
      PushInt();
      break;
    case 1: // arithmetic (division-safe)
      if (Depth >= 2) {
        switch (Rng.nextBelow(5)) {
        case 0: M.iadd(); break;
        case 1: M.isub(); break;
        case 2: M.imul(); break;
        case 3: M.iand_(); break;
        case 4: M.ixor_(); break;
        }
        --Depth;
      } else {
        PushInt();
      }
      break;
    case 2: // store/load an int local
      if (Depth >= 1) {
        M.istore(IntLocals[Rng.nextBelow(IntLocals.size())]);
        --Depth;
      } else {
        M.iload(IntLocals[Rng.nextBelow(IntLocals.size())]);
        ++Depth;
      }
      break;
    case 3: { // allocate an object (possibly a subclass) into a ref local
      auto &RL = RefLocals[Rng.nextBelow(RefLocals.size())];
      std::size_t Dyn =
          RL.ClassIdx + Rng.nextBelow(Pool.size() - RL.ClassIdx);
      const ClassDesc &D = Pool[Dyn];
      M.new_(D.Id).dup();
      M.iconst(static_cast<std::int64_t>(Rng.nextBelow(100)));
      M.invokespecial(D.Ctor).astore(RL.Slot);
      RL.NonNull = true;
      break;
    }
    case 4: { // field read from a nonnull ref local
      std::vector<std::size_t> Candidates;
      for (std::size_t I = 0; I != RefLocals.size(); ++I)
        if (RefLocals[I].NonNull)
          Candidates.push_back(I);
      if (Candidates.empty()) {
        PushInt();
        break;
      }
      auto &RL = RefLocals[Candidates[Rng.nextBelow(Candidates.size())]];
      M.aload(RL.Slot).getfield(Pool[RL.ClassIdx].IntField);
      ++Depth;
      break;
    }
    case 5: { // field write to a nonnull ref local
      std::vector<std::size_t> Candidates;
      for (std::size_t I = 0; I != RefLocals.size(); ++I)
        if (RefLocals[I].NonNull)
          Candidates.push_back(I);
      if (Candidates.empty() || Depth == 0) {
        PushInt();
        break;
      }
      auto &RL = RefLocals[Candidates[Rng.nextBelow(Candidates.size())]];
      M.aload(RL.Slot).swap().putfield(Pool[RL.ClassIdx].IntField);
      --Depth;
      break;
    }
    case 6: { // link two ref locals (ref field write)
      std::vector<std::size_t> Candidates;
      for (std::size_t I = 0; I != RefLocals.size(); ++I)
        if (RefLocals[I].NonNull)
          Candidates.push_back(I);
      if (Candidates.empty()) {
        PushInt();
        break;
      }
      auto &Dst = RefLocals[Candidates[Rng.nextBelow(Candidates.size())]];
      auto &Src = RefLocals[Rng.nextBelow(RefLocals.size())];
      M.aload(Dst.Slot).aload(Src.Slot)
          .putfield(Pool[Dst.ClassIdx].RefField);
      break;
    }
    case 7: // array store at a constant index
      if (Depth >= 1) {
        M.aload(ArrLocal)
            .swap()
            .iconst(static_cast<std::int64_t>(Rng.nextBelow(ArrLen)))
            .swap()
            .iastore();
        --Depth;
      } else {
        PushInt();
      }
      break;
    case 8: // array load at a constant index
      M.aload(ArrLocal)
          .iconst(static_cast<std::int64_t>(Rng.nextBelow(ArrLen)))
          .iaload();
      ++Depth;
      break;
    case 9: // emit a checksum
      if (Depth >= 1) {
        M.invokestatic(Emit);
        --Depth;
      } else {
        PushInt();
      }
      break;
    case 10: { // null a random ref local
      // Only at the top level: inside a loop body, a use emitted before
      // this clear would re-execute on the next iteration and hit null
      // (the linear nonnull tracking cannot see across the back edge).
      if (Budget < 8) {
        PushInt();
        break;
      }
      auto &RL = RefLocals[Rng.nextBelow(RefLocals.size())];
      M.aconstNull().astore(RL.Slot);
      RL.NonNull = false;
      break;
    }
    case 12: { // virtual dispatch through a chain override
      std::vector<std::size_t> Candidates;
      for (std::size_t I = 0; I != RefLocals.size(); ++I)
        if (RefLocals[I].NonNull)
          Candidates.push_back(I);
      if (Candidates.empty()) {
        PushInt();
        break;
      }
      auto &RL = RefLocals[Candidates[Rng.nextBelow(Candidates.size())]];
      M.aload(RL.Slot).invokevirtual(Pool[RL.ClassIdx].Tag);
      ++Depth;
      break;
    }
    case 13: { // try / conditional throw / catch
      if (Budget < 6)
        break; // no nesting
      while (Depth) {
        M.invokestatic(Emit);
        --Depth;
      }
      // Reference flags set inside the try are untrustworthy afterwards
      // (the handler path may skip their assignments).
      std::vector<bool> PreTry;
      for (const RefLocal &RL : RefLocals)
        PreTry.push_back(RL.NonNull);

      Label Ls = M.newLabel(), Le = M.newLabel(), Lh = M.newLabel(),
            Lafter = M.newLabel(), NoThrow = M.newLabel();
      M.bind(Ls);
      M.iconst(static_cast<std::int64_t>(Rng.nextBelow(2)));
      M.ifEqZ(NoThrow);
      M.new_(Ex).dup().invokespecial(ExInit).athrow();
      M.bind(NoThrow);
      for (std::uint32_t I = 0,
                         E = 1 + static_cast<std::uint32_t>(Rng.nextBelow(2));
           I != E; ++I) {
        Self(Self, 1);
        while (Depth) {
          M.invokestatic(Emit);
          --Depth;
        }
      }
      M.bind(Le);
      M.goto_(Lafter);
      M.bind(Lh);
      M.pop(); // the caught exception
      M.bind(Lafter);
      M.addHandler(Ls, Le, Lh, Ex);
      for (std::size_t I = 0; I != RefLocals.size(); ++I)
        RefLocals[I].NonNull = RefLocals[I].NonNull && PreTry[I];
      break;
    }
    case 11: { // a counted loop of simple productions (stack-neutral)
      if (Budget < 4)
        break;
      while (Depth) { // loops require an empty int stack at the head
        M.invokestatic(Emit);
        --Depth;
      }
      std::uint32_t Counter = IntLocals[Rng.nextBelow(IntLocals.size())];
      Label Head = M.newLabel(), Exit = M.newLabel();
      M.iconst(static_cast<std::int64_t>(1 + Rng.nextBelow(6)));
      M.istore(Counter);
      M.bind(Head);
      M.iload(Counter).ifLeZ(Exit);
      for (std::uint32_t I = 0, E = 1 + static_cast<std::uint32_t>(
                                           Rng.nextBelow(3));
           I != E; ++I) {
        Self(Self, 1); // nested simple production
        while (Depth) {
          M.invokestatic(Emit);
          --Depth;
        }
      }
      M.iload(Counter).iconst(1).isub().istore(Counter);
      M.goto_(Head);
      M.bind(Exit);
      break;
    }
    }
  };

  std::uint32_t Productions = 20 + static_cast<std::uint32_t>(
                                       Rng.nextBelow(40));
  for (std::uint32_t I = 0; I != Productions; ++I) {
    M.stmt();
    EmitProduction(EmitProduction, 8);
  }
  // Drain and emit a final checksum so every program has output.
  while (Depth) {
    M.invokestatic(Emit);
    --Depth;
  }
  M.iload(IntLocals[0]).invokestatic(Emit);
  M.ret();
  M.finish();
  PB.setMain(M.id());
  // Verification computes the MaxStack bounds the interpreter sizes its
  // frames from; an unverified program does not run.
  Program P = PB.finish();
  std::string Err;
  EXPECT_TRUE(verifyProgram(P, &Err)) << Err;
  return P;
}

} // namespace jdrag::testutil

#endif // JDRAG_TESTS_RANDOMPROGRAM_H
