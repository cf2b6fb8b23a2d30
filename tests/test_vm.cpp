//===- tests/test_vm.cpp - heap/interpreter/VM tests -----------------------===//

#include "vm/VirtualMachine.h"

#include "profiler/DragProfiler.h"

#include "VMTestUtils.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace jdrag;
using namespace jdrag::ir;
using namespace jdrag::vm;
using jdrag::testutil::TestProgramBuilder;

namespace {

Interpreter::Status runProgram(const Program &P, VMOptions Opts,
                               std::vector<std::int64_t> Inputs,
                               std::vector<std::int64_t> *Out,
                               std::string *Err = nullptr) {
  VirtualMachine VM(P, Opts);
  VM.setInputs(std::move(Inputs));
  Interpreter::Status S = VM.run(Err);
  if (Out)
    *Out = VM.outputs();
  return S;
}

} // namespace

TEST(InterpreterArith, LoopAndFactorial) {
  TestProgramBuilder T;
  ClassBuilder C = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = C.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t N = M.newLocal(ValueKind::Int);
  std::uint32_t Acc = M.newLocal(ValueKind::Int);
  M.iconst(10).istore(N).iconst(1).istore(Acc);
  Label Loop = M.newLabel(), Done = M.newLabel();
  M.bind(Loop);
  M.iload(N).ifLeZ(Done);
  M.iload(Acc).iload(N).imul().istore(Acc);
  M.iload(N).iconst(1).isub().istore(N);
  M.goto_(Loop);
  M.bind(Done);
  M.iload(Acc).invokestatic(T.Emit).ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], 3628800);
}

TEST(InterpreterArith, IntegerOps) {
  TestProgramBuilder T;
  ClassBuilder C = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = C.beginMethod("main", {}, ValueKind::Void, true);
  M.iconst(17).iconst(5).irem().invokestatic(T.Emit);   // 2
  M.iconst(17).iconst(5).idiv().invokestatic(T.Emit);   // 3
  M.iconst(6).iconst(3).iand_().invokestatic(T.Emit);   // 2
  M.iconst(6).iconst(3).ior_().invokestatic(T.Emit);    // 7
  M.iconst(6).iconst(3).ixor_().invokestatic(T.Emit);   // 5
  M.iconst(1).iconst(4).ishl().invokestatic(T.Emit);    // 16
  M.iconst(-16).iconst(2).ishr().invokestatic(T.Emit);  // -4
  M.iconst(5).ineg().invokestatic(T.Emit);              // -5
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{2, 3, 2, 7, 5, 16, -4, -5}));
}

TEST(InterpreterArith, DoubleOpsAndConversions) {
  TestProgramBuilder T;
  ClassBuilder C = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = C.beginMethod("main", {}, ValueKind::Void, true);
  M.dconst(1.5).dconst(2.5).dadd().d2i().invokestatic(T.Emit); // 4
  M.dconst(10.0).dconst(4.0).ddiv().d2i().invokestatic(T.Emit); // 2
  M.iconst(3).i2d().dconst(0.5).dmul().dconst(0.5).dadd().d2i()
      .invokestatic(T.Emit); // 2
  M.dconst(1.0).dconst(2.0).dcmp().invokestatic(T.Emit); // -1
  M.dconst(2.0).dconst(2.0).dcmp().invokestatic(T.Emit); // 0
  M.dconst(3.0).dconst(2.0).dcmp().invokestatic(T.Emit); // 1
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{4, 2, 2, -1, 0, 1}));
}

TEST(InterpreterObjects, FieldsAndVirtualDispatch) {
  TestProgramBuilder T;
  ClassBuilder A = T.PB.beginClass("A", T.PB.objectClass());
  MethodBuilder AR = A.beginMethod("tag", {}, ValueKind::Int);
  AR.iconst(1).iret();
  AR.finish();
  ClassBuilder B = T.PB.beginClass("B", A.id());
  MethodBuilder BR = B.beginMethod("tag", {}, ValueKind::Int);
  BR.iconst(2).iret();
  BR.finish();

  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t Obj = M.newLocal(ValueKind::Ref);
  MethodId ATag = T.PB.program().findDeclaredMethod(A.id(), "tag");
  // new B, call tag via A's declaration -> dispatches to B.tag.
  M.new_(B.id()).dup().invokespecial(T.PB.objectCtor()).astore(Obj);
  M.aload(Obj).invokevirtual(ATag).invokestatic(T.Emit);
  // new A -> 1.
  M.new_(A.id()).dup().invokespecial(T.PB.objectCtor()).astore(Obj);
  M.aload(Obj).invokevirtual(ATag).invokestatic(T.Emit);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{2, 1}));
}

TEST(InterpreterObjects, ConstructorsAndFieldState) {
  TestProgramBuilder T;
  ClassBuilder C = T.PB.beginClass("Box", T.PB.objectClass());
  FieldId V = C.addField("v", ValueKind::Int);
  MethodBuilder Ctor = C.beginMethod("<init>", {ValueKind::Int},
                                     ValueKind::Void);
  Ctor.aload(0).invokespecial(T.PB.objectCtor());
  Ctor.aload(0).iload(1).putfield(V).ret();
  Ctor.finish();

  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t Obj = M.newLocal(ValueKind::Ref);
  M.new_(C.id()).dup().iconst(41).invokespecial(Ctor.id()).astore(Obj);
  M.aload(Obj).getfield(V).iconst(1).iadd().invokestatic(T.Emit);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{42}));
}

TEST(InterpreterArrays, IntCharDoubleRef) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t IA = M.newLocal(ValueKind::Ref);
  std::uint32_t CA = M.newLocal(ValueKind::Ref);
  std::uint32_t DA = M.newLocal(ValueKind::Ref);
  std::uint32_t RA = M.newLocal(ValueKind::Ref);
  M.iconst(3).newarray(ArrayKind::Int).astore(IA);
  M.aload(IA).iconst(0).iconst(7).iastore();
  M.aload(IA).iconst(0).iaload().invokestatic(T.Emit); // 7
  M.aload(IA).arraylength().invokestatic(T.Emit);      // 3
  // Char truncation: 0x1FFFF stores as 0xFFFF.
  M.iconst(2).newarray(ArrayKind::Char).astore(CA);
  M.aload(CA).iconst(1).iconst(0x1FFFF).castore();
  M.aload(CA).iconst(1).caload().invokestatic(T.Emit); // 65535
  M.iconst(1).newarray(ArrayKind::Double).astore(DA);
  M.aload(DA).iconst(0).dconst(2.5).dastore();
  M.aload(DA).iconst(0).daload().d2i().invokestatic(T.Emit); // 2
  // Ref array default null; store then load identity check.
  M.iconst(2).newarray(ArrayKind::Ref).astore(RA);
  Label IsNull = M.newLabel(), Done = M.newLabel();
  M.aload(RA).iconst(0).aaload().ifNull(IsNull);
  M.iconst(0).invokestatic(T.Emit).goto_(Done);
  M.bind(IsNull);
  M.iconst(1).invokestatic(T.Emit); // expect 1
  M.bind(Done);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{7, 3, 65535, 2, 1}));
}

TEST(InterpreterTraps, NullAndBoundsAndDivZero) {
  auto BuildTrap = [](auto EmitBody) {
    TestProgramBuilder T;
    ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
    MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
    EmitBody(T, M);
    M.finish();
    T.PB.setMain(M.id());
    return T.finishVerified();
  };

  {
    Program P = BuildTrap([](TestProgramBuilder &, MethodBuilder &M) {
      std::uint32_t A = M.newLocal(ValueKind::Ref);
      M.aconstNull().astore(A);
      M.aload(A).arraylength().pop().ret();
    });
    std::string Err;
    EXPECT_EQ(runProgram(P, {}, {}, nullptr, &Err),
              Interpreter::Status::Trap);
    EXPECT_NE(Err.find("null"), std::string::npos);
  }
  {
    Program P = BuildTrap([](TestProgramBuilder &, MethodBuilder &M) {
      std::uint32_t A = M.newLocal(ValueKind::Ref);
      M.iconst(2).newarray(ArrayKind::Int).astore(A);
      M.aload(A).iconst(5).iaload().pop().ret();
    });
    std::string Err;
    EXPECT_EQ(runProgram(P, {}, {}, nullptr, &Err),
              Interpreter::Status::Trap);
    EXPECT_NE(Err.find("out of bounds"), std::string::npos);
  }
  {
    Program P = BuildTrap([](TestProgramBuilder &, MethodBuilder &M) {
      M.iconst(1).iconst(0).idiv().pop().ret();
    });
    std::string Err;
    EXPECT_EQ(runProgram(P, {}, {}, nullptr, &Err),
              Interpreter::Status::Trap);
    EXPECT_NE(Err.find("division by zero"), std::string::npos);
  }
}

TEST(InterpreterExceptions, ThrowAndCatch) {
  TestProgramBuilder T;
  ClassBuilder Ex = T.PB.beginClass("MyError", T.PB.throwableClass());
  MethodBuilder ExCtor = Ex.beginMethod("<init>", {}, ValueKind::Void);
  ExCtor.aload(0)
      .invokespecial(
          T.PB.program().findDeclaredMethod(T.PB.throwableClass(), "<init>"))
      .ret();
  ExCtor.finish();

  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());

  // thrower: allocates and throws MyError.
  MethodBuilder Thrower =
      MainC.beginMethod("thrower", {}, ValueKind::Void, true);
  Thrower.new_(Ex.id()).dup().invokespecial(ExCtor.id()).athrow();
  Thrower.finish();

  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  Label TryStart = M.newLabel(), TryEnd = M.newLabel(), Handler = M.newLabel(),
        Done = M.newLabel();
  M.bind(TryStart);
  M.invokestatic(Thrower.id());
  M.bind(TryEnd);
  M.iconst(0).invokestatic(T.Emit).goto_(Done); // not reached
  M.bind(Handler);
  M.pop().iconst(99).invokestatic(T.Emit).goto_(Done);
  M.bind(Done);
  M.ret();
  M.addHandler(TryStart, TryEnd, Handler, Ex.id());
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{99}));
}

TEST(InterpreterExceptions, CatchBySuperclassAndMiss) {
  TestProgramBuilder T;
  ClassBuilder Ex = T.PB.beginClass("MyError", T.PB.throwableClass());
  MethodBuilder ExCtor = Ex.beginMethod("<init>", {}, ValueKind::Void);
  ExCtor.aload(0)
      .invokespecial(
          T.PB.program().findDeclaredMethod(T.PB.throwableClass(), "<init>"))
      .ret();
  ExCtor.finish();
  ClassBuilder Other = T.PB.beginClass("OtherError", T.PB.throwableClass());

  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  Label TryStart = M.newLabel(), TryEnd = M.newLabel();
  Label WrongH = M.newLabel(), SuperH = M.newLabel(), Done = M.newLabel();
  M.bind(TryStart);
  M.new_(Ex.id()).dup().invokespecial(ExCtor.id()).athrow();
  M.bind(TryEnd);
  M.bind(WrongH);
  M.pop().iconst(1).invokestatic(T.Emit).goto_(Done); // wrong type
  M.bind(SuperH);
  M.pop().iconst(2).invokestatic(T.Emit).goto_(Done); // catches
  M.bind(Done);
  M.ret();
  // First handler doesn't match (OtherError), second (Throwable) does.
  M.addHandler(TryStart, TryEnd, WrongH, Other.id());
  M.addHandler(TryStart, TryEnd, SuperH, T.PB.throwableClass());
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{2}));
}

TEST(InterpreterExceptions, UncaughtPropagates) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.new_(T.PB.throwableClass())
      .dup()
      .invokespecial(
          T.PB.program().findDeclaredMethod(T.PB.throwableClass(), "<init>"))
      .athrow();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  std::string Err;
  EXPECT_EQ(runProgram(P, {}, {}, nullptr, &Err),
            Interpreter::Status::UncaughtException);
  EXPECT_NE(Err.find("Throwable"), std::string::npos);
}

TEST(Heap, GCReclaimsUnreachableKeepsReachable) {
  TestProgramBuilder T;
  ClassBuilder Node = T.PB.beginClass("Node", T.PB.objectClass());
  FieldId Next = Node.addField("next", ValueKind::Ref);
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  FieldId Keep =
      MainC.addField("keep", ValueKind::Ref, Visibility::Public, true);
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t I = M.newLocal(ValueKind::Int);
  // Allocate 100 garbage nodes; keep one in a static.
  Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(100).istore(I);
  M.bind(Loop);
  M.iload(I).ifLeZ(Done);
  M.new_(Node.id()).dup().invokespecial(T.PB.objectCtor()).pop();
  M.iload(I).iconst(1).isub().istore(I);
  M.goto_(Loop);
  M.bind(Done);
  M.new_(Node.id()).dup().invokespecial(T.PB.objectCtor()).putstatic(Keep);
  // Link a second node behind the kept one (reachable transitively).
  M.getstatic(Keep)
      .new_(Node.id())
      .dup()
      .invokespecial(T.PB.objectCtor())
      .putfield(Next);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  VirtualMachine VM(P, {});
  ASSERT_EQ(VM.run(), Interpreter::Status::Ok);
  // After run(): final deep GC has run; only statics-reachable survive.
  // Survivors: 2 Nodes + preallocated OOM instance.
  EXPECT_EQ(VM.heap().liveObjectCount(), 3u);
  EXPECT_GT(VM.heap().gcCount(), 0u);
}

TEST(Heap, ByteClockMatchesAccounting) {
  TestProgramBuilder T;
  ClassBuilder Node = T.PB.beginClass("Node", T.PB.objectClass());
  Node.addField("a", ValueKind::Int);
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.new_(Node.id()).dup().invokespecial(T.PB.objectCtor()).pop();
  M.iconst(100).newarray(ArrayKind::Char).pop();
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  VirtualMachine VM(P, {});
  ASSERT_EQ(VM.run(), Interpreter::Status::Ok);
  std::uint64_t Expected =
      P.classOf(P.findClass("Node")).InstanceAccountedBytes +
      Program::arrayAccountedBytes(ArrayKind::Char, 100) +
      P.classOf(P.OOMClass).InstanceAccountedBytes; // VM preallocation
  EXPECT_EQ(VM.heap().clock(), Expected);
}

TEST(Heap, FinalizersRunOnceViaDeepGC) {
  TestProgramBuilder T;
  ClassBuilder F = T.PB.beginClass("Fin", T.PB.objectClass());
  MethodBuilder Fin = F.beginMethod("finalize", {}, ValueKind::Void);
  Fin.iconst(77).invokestatic(T.Emit).ret();
  Fin.finish();

  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  // Allocate a finalizable object, drop it, allocate filler to pass the
  // deep-GC interval.
  M.new_(F.id()).dup().invokespecial(T.PB.objectCtor()).pop();
  std::uint32_t I = M.newLocal(ValueKind::Int);
  Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(64).istore(I);
  M.bind(Loop);
  M.iload(I).ifLeZ(Done);
  M.iconst(1024).newarray(ArrayKind::Int).pop();
  M.iload(I).iconst(1).isub().istore(I);
  M.goto_(Loop);
  M.bind(Done);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, Opts, {}, &Out), Interpreter::Status::Ok);
  // Finalizer ran exactly once (deep GC during loop or at termination).
  EXPECT_EQ(Out, (std::vector<std::int64_t>{77}));
}

TEST(Heap, OOMThrownAndCatchable) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  FieldId Keep =
      MainC.addField("keep", ValueKind::Ref, Visibility::Public, true);
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  Label TryStart = M.newLabel(), TryEnd = M.newLabel(), Handler = M.newLabel(),
        Done = M.newLabel();
  // Keep a growing chain reachable from a static so GC cannot help.
  std::uint32_t Arr = M.newLocal(ValueKind::Ref);
  Label Loop = M.newLabel();
  M.bind(TryStart);
  M.bind(Loop);
  M.iconst(1000).newarray(ArrayKind::Ref).astore(Arr);
  M.aload(Arr).iconst(0).getstatic(Keep).aastore();
  M.aload(Arr).putstatic(Keep);
  M.goto_(Loop);
  M.bind(TryEnd);
  M.bind(Handler);
  M.pop().iconst(5).invokestatic(T.Emit).goto_(Done);
  M.bind(Done);
  M.ret();
  M.addHandler(TryStart, TryEnd, Handler, T.PB.oomClass());
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  VMOptions Opts;
  Opts.MaxLiveBytes = 256 * KB;
  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, Opts, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{5}));
}

TEST(VM, InputsAndOutputs) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  // emit(read(0) + read(1)); emit(inputCount())
  M.iconst(0).invokestatic(T.Read);
  M.iconst(1).invokestatic(T.Read);
  M.iadd().invokestatic(T.Emit);
  M.invokestatic(T.InputCount).invokestatic(T.Emit);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {20, 22}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{42, 2}));
}

TEST(VM, StepLimitStopsRunaway) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  Label Loop = M.newLabel();
  M.bind(Loop);
  M.goto_(Loop);
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  VMOptions Opts;
  Opts.MaxSteps = 1000;
  std::string Err;
  EXPECT_EQ(runProgram(P, Opts, {}, nullptr, &Err),
            Interpreter::Status::StepLimit);
}

TEST(VM, MonitorBalancedAndUnderflowTrap) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t O = M.newLocal(ValueKind::Ref);
  M.new_(T.PB.objectClass()).dup().invokespecial(T.PB.objectCtor()).astore(O);
  M.aload(O).monitorenter();
  M.aload(O).monitorexit();
  M.aload(O).monitorexit(); // underflow
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  std::string Err;
  EXPECT_EQ(runProgram(P, {}, {}, nullptr, &Err), Interpreter::Status::Trap);
  EXPECT_NE(Err.find("monitorexit"), std::string::npos);
}

TEST(VM, RecursionAndReturnValues) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  // fib(n): static int
  MethodBuilder Fib =
      MainC.beginMethod("fib", {ValueKind::Int}, ValueKind::Int, true);
  Label Rec = Fib.newLabel();
  Fib.iload(0).iconst(2).ifICmpGe(Rec);
  Fib.iload(0).iret();
  Fib.bind(Rec);
  Fib.iload(0).iconst(1).isub().invokestatic(Fib.id());
  Fib.iload(0).iconst(2).isub().invokestatic(Fib.id());
  Fib.iadd().iret();
  Fib.finish();

  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.iconst(15).invokestatic(Fib.id()).invokestatic(T.Emit).ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{610}));
}

TEST(InterpreterEdge, DcmpNaNIsMinusOne) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  // NaN via 0.0/0.0; dcmpl semantics: NaN compares as -1 both ways.
  M.dconst(0.0).dconst(0.0).ddiv().dconst(1.0).dcmp().invokestatic(T.Emit);
  M.dconst(1.0).dconst(0.0).dconst(0.0).ddiv().dcmp().invokestatic(T.Emit);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();
  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{-1, -1}));
}

TEST(InterpreterEdge, ShiftCountsMaskTo63) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.iconst(1).iconst(64).ishl().invokestatic(T.Emit); // 64 & 63 = 0 -> 1
  M.iconst(8).iconst(65).ishr().invokestatic(T.Emit); // 65 & 63 = 1 -> 4
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();
  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{1, 4}));
}

TEST(InterpreterEdge, NegativeDivisionTruncatesTowardZero) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.iconst(-7).iconst(2).idiv().invokestatic(T.Emit); // -3
  M.iconst(-7).iconst(2).irem().invokestatic(T.Emit); // -1
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();
  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{-3, -1}));
}

TEST(InterpreterEdge, FinalizerExceptionIsSwallowed) {
  TestProgramBuilder T;
  ClassBuilder F = T.PB.beginClass("Fin", T.PB.objectClass());
  MethodBuilder Fin = F.beginMethod("finalize", {}, ValueKind::Void);
  Fin.iconst(7).invokestatic(T.Emit);
  Fin.new_(T.PB.throwableClass())
      .dup()
      .invokespecial(
          T.PB.program().findDeclaredMethod(T.PB.throwableClass(), "<init>"))
      .athrow();
  Fin.finish();
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.new_(F.id()).dup().invokespecial(T.PB.objectCtor()).pop();
  M.iconst(1).invokestatic(T.Emit);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  // The final deep GC at termination runs the finalizer; its exception
  // must not abort the VM (Java swallows finalizer exceptions).
  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{1, 7}));
}

TEST(InterpreterEdge, UncaughtOOMReportsException) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  FieldId Keep =
      MainC.addField("keep", ValueKind::Ref, Visibility::Public, true);
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t Arr = M.newLocal(ValueKind::Ref);
  Label Loop = M.newLabel();
  M.bind(Loop);
  M.iconst(1000).newarray(ArrayKind::Ref).astore(Arr);
  M.aload(Arr).iconst(0).getstatic(Keep).aastore();
  M.aload(Arr).putstatic(Keep);
  M.goto_(Loop);
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  VMOptions Opts;
  Opts.MaxLiveBytes = 128 * KB;
  std::string Err;
  EXPECT_EQ(runProgram(P, Opts, {}, nullptr, &Err),
            Interpreter::Status::UncaughtException);
  EXPECT_NE(Err.find("OutOfMemoryError"), std::string::npos);
}

TEST(InterpreterEdge, ExceptionUnwindsThroughFrames) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  // deep3 throws; deep2/deep1 just call down; main catches.
  MethodBuilder D3 = MainC.beginMethod("d3", {}, ValueKind::Void, true);
  D3.new_(T.PB.throwableClass())
      .dup()
      .invokespecial(
          T.PB.program().findDeclaredMethod(T.PB.throwableClass(), "<init>"))
      .athrow();
  D3.finish();
  MethodBuilder D2 = MainC.beginMethod("d2", {}, ValueKind::Void, true);
  D2.invokestatic(D3.id()).ret();
  D2.finish();
  MethodBuilder D1 = MainC.beginMethod("d1", {}, ValueKind::Void, true);
  D1.invokestatic(D2.id()).ret();
  D1.finish();
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  Label TS = M.newLabel(), TE = M.newLabel(), H = M.newLabel(),
        Done = M.newLabel();
  M.bind(TS);
  M.invokestatic(D1.id());
  M.bind(TE);
  M.goto_(Done);
  M.bind(H);
  M.pop().iconst(3).invokestatic(T.Emit);
  M.bind(Done);
  M.ret();
  M.addHandler(TS, TE, H, T.PB.throwableClass());
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{3}));
}

TEST(InterpreterEdge, ReentrantMonitors) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t O = M.newLocal(ValueKind::Ref);
  M.new_(T.PB.objectClass()).dup().invokespecial(T.PB.objectCtor()).astore(O);
  M.aload(O).monitorenter();
  M.aload(O).monitorenter(); // reentrant
  M.aload(O).monitorexit();
  M.aload(O).monitorexit();
  M.iconst(1).invokestatic(T.Emit);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();
  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{1}));
}

//===----------------------------------------------------------------------===//
// Generational collection
//===----------------------------------------------------------------------===//

namespace {

/// Program churning young garbage while an old linked structure survives.
Program buildGenWorkload(TestProgramBuilder &T) {
  ClassBuilder Node = T.PB.beginClass("Node", T.PB.objectClass());
  FieldId Next = Node.addField("next", ValueKind::Ref);
  FieldId Val = Node.addField("val", ValueKind::Int);
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  FieldId Head =
      MainC.addField("head", ValueKind::Ref, Visibility::Private, true);
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t I = M.newLocal(ValueKind::Int);
  std::uint32_t N = M.newLocal(ValueKind::Ref);
  Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(400).istore(I);
  M.bind(Loop);
  M.iload(I).ifLeZ(Done);
  // A long-lived node prepended to the static list (old->young edges
  // appear when the old head points at a fresh node... actually the
  // fresh node points at the old head; the *static* keeps it alive).
  M.new_(Node.id()).dup().invokespecial(T.PB.objectCtor()).astore(N);
  M.aload(N).getstatic(Head).putfield(Next);
  M.aload(N).iload(I).putfield(Val);
  M.aload(N).putstatic(Head);
  // Young garbage: a 2 KB array dropped immediately.
  M.iconst(500).newarray(ArrayKind::Int).pop();
  M.iload(I).iconst(1).isub().istore(I);
  M.goto_(Loop);
  M.bind(Done);
  // Checksum the list.
  std::uint32_t Acc = M.newLocal(ValueKind::Int);
  Label Walk = M.newLabel(), WDone = M.newLabel();
  M.iconst(0).istore(Acc);
  M.getstatic(Head).astore(N);
  M.bind(Walk);
  M.aload(N).ifNull(WDone);
  M.iload(Acc).aload(N).getfield(Val).iadd().istore(Acc);
  M.aload(N).getfield(Next).astore(N);
  M.goto_(Walk);
  M.bind(WDone);
  M.iload(Acc).invokestatic(T.Emit);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  return T.finishVerified();
}

} // namespace

TEST(GenerationalGC, SameResultsAsPlain) {
  TestProgramBuilder T1;
  Program P1 = buildGenWorkload(T1);
  auto Plain = runProgram(P1, {}, {}, nullptr);
  std::vector<std::int64_t> PlainOut;
  {
    VirtualMachine VM(P1, {});
    ASSERT_EQ(VM.run(), Interpreter::Status::Ok);
    PlainOut = VM.outputs();
  }
  VMOptions Gen;
  Gen.Generational.Enabled = true;
  Gen.Generational.NurseryBytes = 16 * KB;
  VirtualMachine VM(P1, Gen);
  ASSERT_EQ(VM.run(), Interpreter::Status::Ok);
  EXPECT_EQ(VM.outputs(), PlainOut);
  EXPECT_GT(VM.heap().minorGCCount(), 0u);
  (void)Plain;
}

TEST(GenerationalGC, MinorGCReclaimsYoungGarbageOnly) {
  TestProgramBuilder T;
  Program P = buildGenWorkload(T);
  VMOptions Gen;
  Gen.Generational.Enabled = true;
  Gen.Generational.NurseryBytes = 16 * KB;
  Gen.Generational.MajorEveryNMinors = 0; // minors only
  VirtualMachine VM(P, Gen);
  ASSERT_EQ(VM.run(), Interpreter::Status::Ok);
  // The 400-node list survives every minor GC; at termination (after
  // the final deep GC) it is still reachable from the static.
  EXPECT_GE(VM.heap().liveObjectCount(), 400u);
  EXPECT_GT(VM.heap().minorGCCount(), 10u);
}

TEST(GenerationalGC, RememberedSetKeepsOldToYoungEdgeAlive) {
  // old.field = young; drop all other refs to young; minor GC must not
  // reclaim it.
  TestProgramBuilder T;
  ClassBuilder Node = T.PB.beginClass("Node", T.PB.objectClass());
  FieldId Next = Node.addField("next", ValueKind::Ref);
  FieldId Val = Node.addField("val", ValueKind::Int);
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  FieldId Anchor =
      MainC.addField("anchor", ValueKind::Ref, Visibility::Private, true);
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t I = M.newLocal(ValueKind::Int);
  // anchor = new Node();  (then age it past promotion with churn)
  M.new_(Node.id()).dup().invokespecial(T.PB.objectCtor()).putstatic(Anchor);
  Label L1 = M.newLabel(), D1 = M.newLabel();
  M.iconst(30).istore(I);
  M.bind(L1);
  M.iload(I).ifLeZ(D1);
  M.iconst(500).newarray(ArrayKind::Int).pop(); // churn -> minor GCs
  M.iload(I).iconst(1).isub().istore(I);
  M.goto_(L1);
  M.bind(D1);
  // anchor.next = new Node(); anchor.next.val = 99; (young, only held
  // through the old anchor)
  M.getstatic(Anchor);
  M.new_(Node.id()).dup().invokespecial(T.PB.objectCtor());
  M.putfield(Next);
  M.getstatic(Anchor).getfield(Next).iconst(99).putfield(Val);
  // more churn -> more minor GCs while the young node has no other ref
  Label L2 = M.newLabel(), D2 = M.newLabel();
  M.iconst(30).istore(I);
  M.bind(L2);
  M.iload(I).ifLeZ(D2);
  M.iconst(500).newarray(ArrayKind::Int).pop();
  M.iload(I).iconst(1).isub().istore(I);
  M.goto_(L2);
  M.bind(D2);
  M.getstatic(Anchor).getfield(Next).getfield(Val).invokestatic(T.Emit);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  VMOptions Gen;
  Gen.Generational.Enabled = true;
  Gen.Generational.NurseryBytes = 4 * KB;
  Gen.Generational.MajorEveryNMinors = 0;
  VirtualMachine VM(P, Gen);
  std::vector<std::int64_t> Out;
  std::string Err;
  ASSERT_EQ(VM.run(&Err), Interpreter::Status::Ok) << Err;
  EXPECT_EQ(VM.outputs(), (std::vector<std::int64_t>{99}));
  EXPECT_GT(VM.heap().rememberedSetSize(), 0u);
}

TEST(GenerationalGC, MajorCadenceRuns) {
  TestProgramBuilder T;
  Program P = buildGenWorkload(T);
  VMOptions Gen;
  Gen.Generational.Enabled = true;
  Gen.Generational.NurseryBytes = 8 * KB;
  Gen.Generational.MajorEveryNMinors = 4;
  VirtualMachine VM(P, Gen);
  ASSERT_EQ(VM.run(), Interpreter::Status::Ok);
  // Total collections exceed minor count: majors interleave.
  EXPECT_GT(VM.heap().gcCount(), VM.heap().minorGCCount());
}

//===----------------------------------------------------------------------===//
// Heap API (used directly, without the interpreter)
//===----------------------------------------------------------------------===//

namespace {

/// A root source pinning an explicit list of handles.
class PinnedRoots : public RootSource {
public:
  std::vector<Handle> Pins;
  void visitRoots(HandleVisitor Visit) override {
    for (Handle H : Pins)
      Visit(H);
  }
};

Program tinyHeapProgram(ClassId *NodeOut, FieldId *NextOut) {
  TestProgramBuilder T;
  ClassBuilder Node = T.PB.beginClass("Node", T.PB.objectClass());
  FieldId Next = Node.addField("next", ValueKind::Ref);
  (void)Next;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();
  *NodeOut = P.findClass("Node");
  *NextOut = P.findField(*NodeOut, "next");
  return P;
}

} // namespace

TEST(HeapDirect, AccountingAndClock) {
  ClassId Node;
  FieldId Next;
  Program P = tinyHeapProgram(&Node, &Next);
  Heap H(P);
  EXPECT_EQ(H.clock(), 0u);
  Handle A = H.allocateObject(Node);
  std::uint32_t NodeBytes = P.classOf(Node).InstanceAccountedBytes;
  EXPECT_EQ(H.clock(), NodeBytes);
  EXPECT_EQ(H.liveBytes(), NodeBytes);
  EXPECT_EQ(H.liveObjectCount(), 1u);
  Handle Arr = H.allocateArray(ArrayKind::Char, 100);
  EXPECT_EQ(H.clock(),
            NodeBytes + Program::arrayAccountedBytes(ArrayKind::Char, 100));
  EXPECT_TRUE(H.isLive(A));
  EXPECT_TRUE(H.isLive(Arr));
  EXPECT_FALSE(H.isLive(Handle()));
}

TEST(HeapDirect, CollectFreesUnpinnedAndRecyclesHandles) {
  ClassId Node;
  FieldId Next;
  Program P = tinyHeapProgram(&Node, &Next);
  Heap H(P);
  PinnedRoots Roots;
  H.addRootSource(&Roots);

  Handle Kept = H.allocateObject(Node);
  Roots.Pins.push_back(Kept);
  Handle Dropped = H.allocateObject(Node);
  std::uint32_t DroppedIndex = Dropped.Index;

  GCStats S = H.collect();
  EXPECT_EQ(S.FreedObjects, 1u);
  EXPECT_EQ(S.ReachableObjects, 1u);
  EXPECT_TRUE(H.isLive(Kept));
  EXPECT_FALSE(H.isLive(Dropped));

  // The freed handle index is recycled for the next allocation.
  Handle Fresh = H.allocateObject(Node);
  EXPECT_EQ(Fresh.Index, DroppedIndex);

  // Transitive reachability through a field.
  Handle Tail = H.allocateObject(Node);
  H.object(Kept).Slots[P.fieldOf(Next).Slot] = Value::makeRef(Tail);
  H.collect();
  EXPECT_TRUE(H.isLive(Tail));
  H.removeRootSource(&Roots);
}

TEST(HeapDirect, ForEachLiveObjectEnumeratesAll) {
  ClassId Node;
  FieldId Next;
  Program P = tinyHeapProgram(&Node, &Next);
  Heap H(P);
  PinnedRoots Roots;
  H.addRootSource(&Roots);
  for (int I = 0; I != 5; ++I)
    Roots.Pins.push_back(H.allocateObject(Node));
  std::size_t Count = 0;
  std::uint64_t Bytes = 0;
  H.forEachLiveObject([&](Handle, const HeapObject &Obj) {
    ++Count;
    Bytes += Obj.AccountedBytes;
  });
  EXPECT_EQ(Count, 5u);
  EXPECT_EQ(Bytes, H.liveBytes());
  H.removeRootSource(&Roots);
}

TEST(HeapDirect, ObjectIdsNeverRecycled) {
  ClassId Node;
  FieldId Next;
  Program P = tinyHeapProgram(&Node, &Next);
  Heap H(P);
  Handle A = H.allocateObject(Node);
  ObjectId IdA = H.object(A).Id;
  H.collect(); // frees A (no roots)
  Handle B = H.allocateObject(Node);
  EXPECT_GT(H.object(B).Id, IdA) << "ids are immortal even if handles are not";
}

TEST(VMEdge, DoubleOutputsRoundTripThroughEmitD) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.dconst(2.5).invokestatic(T.EmitD);
  M.dconst(-0.125).invokestatic(T.EmitD);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();
  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  ASSERT_EQ(Out.size(), 2u);
  double A, B;
  std::memcpy(&A, &Out[0], sizeof(A));
  std::memcpy(&B, &Out[1], sizeof(B));
  EXPECT_DOUBLE_EQ(A, 2.5);
  EXPECT_DOUBLE_EQ(B, -0.125);
}

TEST(VMEdge, ReferenceIdentitySemantics) {
  TestProgramBuilder T;
  ClassBuilder C = T.PB.beginClass("C", T.PB.objectClass());
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t A = M.newLocal(ValueKind::Ref);
  std::uint32_t B = M.newLocal(ValueKind::Ref);
  M.new_(C.id()).dup().invokespecial(T.PB.objectCtor()).astore(A);
  M.new_(C.id()).dup().invokespecial(T.PB.objectCtor()).astore(B);
  // a == a -> 1; a == b -> 0; null == null -> 1.
  Label Eq1 = M.newLabel(), N1 = M.newLabel();
  M.aload(A).aload(A).ifACmpEq(Eq1);
  M.iconst(0).invokestatic(T.Emit).goto_(N1);
  M.bind(Eq1);
  M.iconst(1).invokestatic(T.Emit);
  M.bind(N1);
  Label Eq2 = M.newLabel(), N2 = M.newLabel();
  M.aload(A).aload(B).ifACmpEq(Eq2);
  M.iconst(0).invokestatic(T.Emit).goto_(N2);
  M.bind(Eq2);
  M.iconst(1).invokestatic(T.Emit);
  M.bind(N2);
  Label Eq3 = M.newLabel(), N3 = M.newLabel();
  M.aconstNull().aconstNull().ifACmpEq(Eq3);
  M.iconst(0).invokestatic(T.Emit).goto_(N3);
  M.bind(Eq3);
  M.iconst(1).invokestatic(T.Emit);
  M.bind(N3);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();
  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{1, 0, 1}));
}

TEST(VMEdge, StaticFieldsDefaultToZero) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  FieldId SI = MainC.addField("si", ValueKind::Int, Visibility::Public, true);
  FieldId SR = MainC.addField("sr", ValueKind::Ref, Visibility::Public, true);
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.getstatic(SI).invokestatic(T.Emit); // 0
  Label IsNull = M.newLabel(), Done = M.newLabel();
  M.getstatic(SR).ifNull(IsNull);
  M.iconst(0).invokestatic(T.Emit).goto_(Done);
  M.bind(IsNull);
  M.iconst(1).invokestatic(T.Emit);
  M.bind(Done);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();
  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{0, 1}));
}

TEST(VMEdge, AReturnNullIsLegal) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder F = MainC.beginMethod("maybe", {}, ValueKind::Ref, true);
  F.aconstNull().aret();
  F.finish();
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  Label IsNull = M.newLabel(), Done = M.newLabel();
  M.invokestatic(F.id()).ifNull(IsNull);
  M.iconst(0).invokestatic(T.Emit).goto_(Done);
  M.bind(IsNull);
  M.iconst(1).invokestatic(T.Emit);
  M.bind(Done);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();
  std::vector<std::int64_t> Out;
  ASSERT_EQ(runProgram(P, {}, {}, &Out), Interpreter::Status::Ok);
  EXPECT_EQ(Out, (std::vector<std::int64_t>{1}));
}

//===----------------------------------------------------------------------===//
// The value stack: frames are windows into one contiguous stack, and
// arguments are passed in place
//===----------------------------------------------------------------------===//

namespace {

/// Emits a loop into \p M that allocates and drops \p Count int[1024]
/// arrays (~4 KB each), counting down in local \p Counter and using at
/// most two operand slots.
void emitFiller(MethodBuilder &M, std::uint32_t Counter, int Count) {
  Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(Count).istore(Counter);
  M.bind(Loop);
  M.iload(Counter).ifLeZ(Done);
  M.iconst(1024).newarray(ArrayKind::Int).pop();
  M.iload(Counter).iconst(1).isub().istore(Counter);
  M.goto_(Loop);
  M.bind(Done);
}

/// Adds static `int Name(int n)` returning n, by recursion n deep; with
/// \p Node valid, every level also allocates (and drops) one Node.
MethodId addCountDown(ClassBuilder &C, const char *Name, ClassId Node,
                      MethodId NodeCtor) {
  MethodBuilder M = C.beginMethod(Name, {ValueKind::Int}, ValueKind::Int, true);
  Label Rec = M.newLabel();
  M.iload(0).ifGtZ(Rec);
  M.iconst(0).iret();
  M.bind(Rec);
  if (Node.isValid())
    M.new_(Node).dup().invokespecial(NodeCtor).pop();
  M.iload(0).iconst(1).isub().invokestatic(M.id());
  M.iconst(1).iadd().iret();
  M.finish();
  return M.id();
}

} // namespace

TEST(ValueStack, DeepRecursionGrowsStackUnderLiveFrames) {
  // Each activation of down() keeps an int local and a live object
  // across its recursive call. 5000 nested windows of 6 values outgrow
  // the initial value stack seven times over; with a 4 KB deep-GC
  // interval, collections run while all of them are live.
  constexpr std::int64_t Depth = 5000;
  TestProgramBuilder T;
  ClassBuilder Node = T.PB.beginClass("Node", T.PB.objectClass());
  FieldId V = Node.addField("v", ValueKind::Int);
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder Down =
      MainC.beginMethod("down", {ValueKind::Int}, ValueKind::Int, true);
  std::uint32_t O = Down.newLocal(ValueKind::Ref);
  std::uint32_t K = Down.newLocal(ValueKind::Int);
  Label Rec = Down.newLabel();
  Down.iload(0).ifGtZ(Rec);
  Down.iconst(0).iret();
  Down.bind(Rec);
  Down.new_(Node.id()).dup().invokespecial(T.PB.objectCtor()).astore(O);
  Down.aload(O).iload(0).iconst(3).imul().putfield(V);
  Down.iload(0).iconst(7).iadd().istore(K);
  Down.iload(0).iconst(1).isub().invokestatic(Down.id());
  Down.aload(O).getfield(V).iadd().iload(K).iadd().iret();
  Down.finish();
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.iconst(Depth).invokestatic(Down.id()).invokestatic(T.Emit).ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  // The sum over n = 1..Depth of 3n + (n + 7).
  const std::int64_t Want = 2 * Depth * (Depth + 1) + 7 * Depth;
  for (std::uint64_t Interval : {std::uint64_t(0), 4 * KB}) {
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = Interval;
    std::vector<std::int64_t> Out;
    std::string Err;
    ASSERT_EQ(runProgram(P, Opts, {}, &Out, &Err), Interpreter::Status::Ok)
        << Err;
    EXPECT_EQ(Out, (std::vector<std::int64_t>{Want})) << Interval;
  }
}

TEST(ValueStack, FinalizerRunsFromDeepGCManyFramesDown) {
  // A dropped finalizable object is collected by a deep GC 200 frames
  // down; its finalizer recurses on top of those frames, and every
  // frame below still returns its locals intact.
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodId Work = addCountDown(MainC, "work", ClassId(), MethodId());
  MethodBuilder Fill = MainC.beginMethod("fill", {}, ValueKind::Void, true);
  emitFiller(Fill, Fill.newLocal(ValueKind::Int), 64);
  Fill.ret();
  Fill.finish();
  MethodBuilder Dive =
      MainC.beginMethod("dive", {ValueKind::Int}, ValueKind::Int, true);
  std::uint32_t K = Dive.newLocal(ValueKind::Int);
  Label Rec = Dive.newLabel();
  Dive.iload(0).ifGtZ(Rec);
  Dive.invokestatic(Fill.id()).iconst(0).iret();
  Dive.bind(Rec);
  Dive.iload(0).iconst(2).imul().istore(K);
  Dive.iload(0).iconst(1).isub().invokestatic(Dive.id());
  Dive.iload(K).iadd().iload(0).isub().iret(); // adds n per level
  Dive.finish();

  ClassBuilder Fin = T.PB.beginClass("Fin", T.PB.objectClass());
  MethodBuilder Finalize = Fin.beginMethod("finalize", {}, ValueKind::Void);
  Finalize.iconst(20).invokestatic(Work).iconst(57).iadd();
  Finalize.invokestatic(T.Emit).ret();
  Finalize.finish();

  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.new_(Fin.id()).dup().invokespecial(T.PB.objectCtor()).pop();
  M.iconst(200).invokestatic(Dive.id()).invokestatic(T.Emit).ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  std::vector<std::int64_t> Out;
  std::string Err;
  ASSERT_EQ(runProgram(P, Opts, {}, &Out, &Err), Interpreter::Status::Ok)
      << Err;
  // The finalizer's 77 comes first: it ran inside dive(), not at exit.
  EXPECT_EQ(Out, (std::vector<std::int64_t>{77, 200 * 201 / 2}));
}

TEST(ValueStack, NativeReentersVM) {
  // main calls a native with a live object and an int on its operand
  // stack. The native re-enters the VM through Interpreter::call, which
  // recurses 2000 frames deep (growing the value stack) and allocates
  // enough to run deep GCs while main's operands sit below.
  TestProgramBuilder T;
  NativeId ReenterN =
      T.PB.declareNative("test.reenter", {ValueKind::Int}, ValueKind::Int);
  ClassBuilder Node = T.PB.beginClass("Node", T.PB.objectClass());
  FieldId V = Node.addField("v", ValueKind::Int);
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodId Reenter = MainC.addNativeMethod("reenter", ReenterN);
  MethodId Deep = addCountDown(MainC, "deep", Node.id(), T.PB.objectCtor());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.new_(Node.id()).dup().invokespecial(T.PB.objectCtor());
  M.dup().iconst(5).putfield(V);                 // [node]
  M.iconst(1000).iconst(2000).invokestatic(Reenter); // [node, 1000, 4000]
  M.iadd().swap().getfield(V).iadd();            // [5005]
  M.invokestatic(T.Emit).ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 4 * KB;
  VirtualMachine VM(P, Opts);
  VM.bindNative("test.reenter", [&](NativeContext &Ctx) {
    Value Arg = Ctx.args()[0];
    Value R;
    std::string Err;
    EXPECT_EQ(Ctx.interpreter().call(Deep, {&Arg, 1}, &R, &Err),
              Interpreter::Status::Ok)
        << Err;
    return Value::makeInt(Arg.asInt() + R.asInt());
  });
  std::string Err;
  ASSERT_EQ(VM.run(&Err), Interpreter::Status::Ok) << Err;
  EXPECT_EQ(VM.outputs(), (std::vector<std::int64_t>{5005}));
}

TEST(ValueStack, ExceptionUnwindsThreeFramesToBareHandlerStack) {
  // main calls d1 -> d2 -> d3 with a finalizable object and two ints on
  // its operand stack; d3 throws. The handler's stack must hold only the
  // exception: once it is popped, nothing roots the object, so the deep
  // GC the handler provokes finalizes it before the handler's own output.
  TestProgramBuilder T;
  ClassBuilder Big = T.PB.beginClass("Big", T.PB.objectClass());
  MethodBuilder Finalize = Big.beginMethod("finalize", {}, ValueKind::Void);
  Finalize.iconst(99).invokestatic(T.Emit).ret();
  Finalize.finish();
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder Fill = MainC.beginMethod("fill", {}, ValueKind::Void, true);
  emitFiller(Fill, Fill.newLocal(ValueKind::Int), 64);
  Fill.ret();
  Fill.finish();
  MethodBuilder D3 = MainC.beginMethod("d3", {}, ValueKind::Void, true);
  D3.new_(T.PB.throwableClass())
      .dup()
      .invokespecial(
          T.PB.program().findDeclaredMethod(T.PB.throwableClass(), "<init>"))
      .athrow();
  D3.finish();
  MethodBuilder D2 = MainC.beginMethod("d2", {}, ValueKind::Void, true);
  D2.invokestatic(D3.id()).ret();
  D2.finish();
  MethodBuilder D1 = MainC.beginMethod("d1", {}, ValueKind::Void, true);
  D1.invokestatic(D2.id()).ret();
  D1.finish();
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  Label TS = M.newLabel(), TE = M.newLabel(), H = M.newLabel(),
        Done = M.newLabel();
  M.bind(TS);
  M.new_(Big.id()).dup().invokespecial(T.PB.objectCtor());
  M.iconst(5).iconst(6).invokestatic(D1.id());
  M.pop().pop().pop();
  M.bind(TE);
  M.goto_(Done);
  M.bind(H);
  M.pop().invokestatic(Fill.id());
  M.iconst(3).invokestatic(T.Emit);
  M.bind(Done);
  M.ret();
  M.addHandler(TS, TE, H, T.PB.throwableClass());
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  std::vector<std::int64_t> Out;
  std::string Err;
  ASSERT_EQ(runProgram(P, Opts, {}, &Out, &Err), Interpreter::Status::Ok)
      << Err;
  EXPECT_EQ(Out, (std::vector<std::int64_t>{99, 3}));
}

namespace {

/// Leaves references to two Objs in dead slots above main's top. leave()
/// builds one and returns, so its local and two of its operand slots lie
/// in a dead window; main builds the other on its own operand stack and
/// pops it, which leaves it in two dead slots of main's live window. With
/// \p Scrub both overwrite those slots with null first. main then
/// allocates past a deep GC using only the two slots at its top, so the
/// stale references stay where they are.
Program deadSlotProgram(bool Scrub, ClassId &ObjClass) {
  TestProgramBuilder T;
  ClassBuilder Obj = T.PB.beginClass("Obj", T.PB.objectClass());
  ObjClass = Obj.id();
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder Leave = MainC.beginMethod("leave", {}, ValueKind::Void, true);
  std::uint32_t O = Leave.newLocal(ValueKind::Ref);
  Leave.iconst(1).iconst(2).iconst(3);
  Leave.new_(Obj.id()).dup().invokespecial(T.PB.objectCtor()).astore(O);
  if (Scrub)
    Leave.aconstNull().aconstNull().pop().pop().aconstNull().astore(O);
  Leave.pop().pop().pop().ret();
  Leave.finish();
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t Counter = M.newLocal(ValueKind::Int);
  M.invokestatic(Leave.id());
  M.iconst(1).iconst(2).iconst(3);
  M.new_(Obj.id()).dup().invokespecial(T.PB.objectCtor());
  M.pop().pop().pop().pop();
  if (Scrub)
    M.iconst(0).iconst(0).iconst(0).aconstNull().aconstNull()
        .pop().pop().pop().pop().pop();
  emitFiller(M, Counter, 64);
  M.iconst(1).invokestatic(T.Emit).ret();
  M.finish();
  T.PB.setMain(M.id());
  return T.finishVerified();
}

/// The records of the Objs \p P allocates, profiled with 100 KB deep
/// GCs.
std::vector<profiler::ObjectRecord>
profileObjs(const Program &P, ClassId ObjClass, ByteTime &EndTime) {
  profiler::DragProfiler Prof(P);
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Prof.attachTo(Opts);
  VirtualMachine VM(P, Opts);
  std::string Err;
  EXPECT_EQ(VM.run(&Err), Interpreter::Status::Ok) << Err;
  EndTime = Prof.log().EndTime;
  std::vector<profiler::ObjectRecord> Objs;
  for (const profiler::ObjectRecord &R : Prof.log().Records)
    if (!R.IsArray && R.Class == ObjClass)
      Objs.push_back(R);
  return Objs;
}

} // namespace

TEST(ValueStack, DeadSlotsAboveSpDoNotRoot) {
  ClassId ObjClass;
  ByteTime DeadEnd = 0, ScrubbedEnd = 0;
  std::vector<profiler::ObjectRecord> Dead =
      profileObjs(deadSlotProgram(false, ObjClass), ObjClass, DeadEnd);
  std::vector<profiler::ObjectRecord> Scrubbed =
      profileObjs(deadSlotProgram(true, ObjClass), ObjClass, ScrubbedEnd);
  ASSERT_EQ(Dead.size(), 2u);
  ASSERT_EQ(Scrubbed.size(), 2u);
  // Both are collected by the first deep GC, exactly when the nulled
  // slots let them go, at the byte time the per-frame-vector interpreter
  // (where a popped value left no slot behind) recorded.
  for (std::size_t I = 0; I != 2; ++I) {
    EXPECT_FALSE(Dead[I].SurvivedToEnd) << I;
    EXPECT_LT(Dead[I].CollectTime, DeadEnd) << I;
    EXPECT_EQ(Dead[I].CollectTime, Scrubbed[I].CollectTime) << I;
    EXPECT_EQ(Dead[I].CollectTime, ByteTime(102824)) << I;
  }
}
