//===- tests/test_properties.cpp - property & fuzz tests ------------------===//
//
// Property-based sweeps: randomly generated (but type-safe, trap-free,
// terminating) programs must verify, run deterministically, satisfy the
// profiler's record invariants, and survive the transformation passes
// with identical outputs. Parameterized over seeds.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "VMTestUtils.h"

#include "analysis/DragReport.h"
#include "ir/Verifier.h"
#include "profiler/DragProfiler.h"
#include "sa/Liveness.h"
#include "sa/StackFlow.h"
#include "transform/AssignNull.h"
#include "transform/AutoOptimizer.h"
#include "transform/DeadCodeRemoval.h"
#include "transform/MethodEditor.h"
#include "vm/VirtualMachine.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace jdrag;
using namespace jdrag::ir;
using namespace jdrag::profiler;
using namespace jdrag::transform;
using namespace jdrag::vm;
using jdrag::testutil::buildRandomProgram;

namespace {

std::vector<std::int64_t> run(const Program &P) {
  VMOptions Opts;
  Opts.MaxSteps = 1u << 24;
  VirtualMachine VM(P, Opts);
  std::string Err;
  EXPECT_EQ(VM.run(&Err), Interpreter::Status::Ok) << Err;
  return VM.outputs();
}

ProfileLog profileOf(const Program &P) {
  DragProfiler Prof(P);
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 4 * KB; // tiny interval: many GCs
  Opts.MaxSteps = 1u << 24;
  Prof.attachTo(Opts);
  VirtualMachine VM(P, Opts);
  std::string Err;
  EXPECT_EQ(VM.run(&Err), Interpreter::Status::Ok) << Err;
  return Prof.takeLog();
}

} // namespace

class RandomPrograms : public testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         testing::Range<std::uint64_t>(1, 81));

TEST_P(RandomPrograms, VerifiesAndRunsDeterministically) {
  Program P = buildRandomProgram(GetParam());
  std::string Err;
  ASSERT_TRUE(verifyProgram(P, &Err)) << Err;
  auto Out1 = run(P);
  auto Out2 = run(P);
  EXPECT_FALSE(Out1.empty());
  EXPECT_EQ(Out1, Out2);
}

TEST_P(RandomPrograms, ProfilerInvariantsHold) {
  Program P = buildRandomProgram(GetParam());
  std::string Err;
  ASSERT_TRUE(verifyProgram(P, &Err)) << Err;
  ProfileLog Log = profileOf(P);
  // Every trailer must be logged: ids are dense from 1, and every object
  // but the preallocated OutOfMemoryError (id 1) is profiled.
  std::vector<vm::ObjectId> Ids;
  for (const ObjectRecord &R : Log.Records)
    Ids.push_back(R.Id);
  std::sort(Ids.begin(), Ids.end());
  for (std::size_t I = 0; I != Ids.size(); ++I)
    ASSERT_EQ(Ids[I], I + 2) << "every trailer must be logged";
  for (const ObjectRecord &R : Log.Records) {
    EXPECT_LE(R.AllocTime, R.LastUseTime);
    EXPECT_LE(R.LastUseTime, R.CollectTime);
    EXPECT_LE(R.CollectTime, Log.EndTime);
    EXPECT_GT(R.Bytes, 0u);
  }
  EXPECT_NEAR(Log.reachableIntegral(),
              Log.inUseIntegral() + Log.totalDrag(),
              Log.reachableIntegral() * 1e-9 + 1.0);
}

TEST_P(RandomPrograms, ProfilingDoesNotChangeResults) {
  Program P = buildRandomProgram(GetParam());
  auto Plain = run(P);
  DragProfiler Prof(P);
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 4 * KB;
  Opts.MaxSteps = 1u << 24;
  Prof.attachTo(Opts);
  VirtualMachine VM(P, Opts);
  std::string Err;
  ASSERT_EQ(VM.run(&Err), Interpreter::Status::Ok) << Err;
  EXPECT_EQ(VM.outputs(), Plain);
}

TEST_P(RandomPrograms, NullifyDeadLocalsPreservesResults) {
  Program P = buildRandomProgram(GetParam());
  auto Before = run(P);
  auto Ins = nullifyDeadLocals(P, P.MainMethod);
  std::string Err;
  ASSERT_TRUE(verifyProgram(P, &Err)) << Err;
  EXPECT_EQ(run(P), Before);
  // Idempotence.
  auto Again = nullifyDeadLocals(P, P.MainMethod);
  EXPECT_TRUE(Again.empty());
  (void)Ins;
}

TEST_P(RandomPrograms, DeadCodeRemovalPreservesResults) {
  Program P = buildRandomProgram(GetParam());
  auto Before = run(P);
  PassContext Ctx(P);
  auto Removed = removeAllDeadAllocations(P, Ctx);
  std::string Err;
  ASSERT_TRUE(verifyProgram(P, &Err)) << Err;
  EXPECT_EQ(run(P), Before);
  (void)Removed;
}

TEST_P(RandomPrograms, AutoOptimizerPreservesResults) {
  Program P = buildRandomProgram(GetParam());
  auto Before = run(P);
  ProfileLog Log = profileOf(P);
  analysis::DragReport Report(P, Log);
  auto Decisions = autoOptimize(P, Report);
  std::string Err;
  ASSERT_TRUE(verifyProgram(P, &Err)) << Err;
  EXPECT_EQ(run(P), Before);
  (void)Decisions;
}

TEST_P(RandomPrograms, AnalysesRunWithoutCrashing) {
  Program P = buildRandomProgram(GetParam());
  std::string Err;
  ASSERT_TRUE(verifyProgram(P, &Err)) << Err; // computes MaxStack
  const MethodInfo &Main = P.methodOf(P.MainMethod);
  sa::StackFlow SF(P, Main);
  sa::LivenessAnalysis LA(P, Main);
  for (std::uint32_t Pc = 0, N = static_cast<std::uint32_t>(Main.Code.size());
       Pc != N; ++Pc) {
    if (!SF.isReachable(Pc))
      continue;
    // Stack depth consistency between the verifier and the flow.
    EXPECT_LE(SF.stackBefore(Pc).size(), Main.MaxStack);
    for (std::uint32_t Slot = 0; Slot != Main.numLocals(); ++Slot)
      if (LA.isLiveIn(Pc, Slot)) {
        // A live-in slot must be live-out of some predecessor or be
        // consumed at Pc itself (sanity, not exhaustive).
        SUCCEED();
      }
  }
}

TEST_P(RandomPrograms, MethodEditorNopInsertionIsTransparent) {
  Program P = buildRandomProgram(GetParam());
  auto Before = run(P);
  MethodInfo &Main = P.methodOf(P.MainMethod);
  // Insert a nop before every 5th instruction.
  MethodEditor Ed(P, Main);
  Instruction Nop;
  Nop.Op = Opcode::Nop;
  for (std::uint32_t Pc = 0; Pc < Main.Code.size(); Pc += 5)
    Ed.insertBefore(Pc, {Nop});
  Ed.apply();
  std::string Err;
  ASSERT_TRUE(verifyProgram(P, &Err)) << Err;
  EXPECT_EQ(run(P), Before);
}

//===----------------------------------------------------------------------===//
// Parameterized profiler-configuration sweeps on a fixed workload
//===----------------------------------------------------------------------===//

class GCIntervalSweep : public testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Intervals, GCIntervalSweep,
                         testing::Values(10 * KB, 50 * KB, 100 * KB,
                                         400 * KB));

TEST_P(GCIntervalSweep, RecordCountIndependentOfInterval) {
  Program P = buildRandomProgram(7);
  DragProfiler Prof(P);
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = GetParam();
  Prof.attachTo(Opts);
  VirtualMachine VM(P, Opts);
  std::string Err;
  ASSERT_EQ(VM.run(&Err), Interpreter::Status::Ok) << Err;
  // Every allocated object is logged exactly once regardless of the
  // collection cadence.
  static std::size_t Reference = 0;
  if (Reference == 0)
    Reference = Prof.log().Records.size();
  EXPECT_EQ(Prof.log().Records.size(), Reference);
}

TEST_P(GCIntervalSweep, MeasuredDragGrowsWithInterval) {
  // Coarser deep-GC intervals can only delay reclamation: measured drag
  // is monotonically non-decreasing in the interval (per fixed program).
  static double LastDrag = -1.0;
  static std::uint64_t LastInterval = 0;
  Program P = buildRandomProgram(7);
  DragProfiler Prof(P);
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = GetParam();
  Prof.attachTo(Opts);
  VirtualMachine VM(P, Opts);
  ASSERT_EQ(VM.run(), Interpreter::Status::Ok);
  double Drag = Prof.log().totalDrag();
  if (LastDrag >= 0 && GetParam() > LastInterval) {
    EXPECT_GE(Drag, LastDrag * 0.999);
  }
  LastDrag = Drag;
  LastInterval = GetParam();
}

TEST_P(RandomPrograms, GenerationalGCPreservesResults) {
  Program P = buildRandomProgram(GetParam());
  auto Plain = run(P);
  VMOptions Gen;
  Gen.MaxSteps = 1u << 24;
  Gen.Generational.Enabled = true;
  Gen.Generational.NurseryBytes = 8 * KB;
  Gen.Generational.MajorEveryNMinors = 4;
  VirtualMachine VM(P, Gen);
  std::string Err;
  ASSERT_EQ(VM.run(&Err), Interpreter::Status::Ok) << Err;
  EXPECT_EQ(VM.outputs(), Plain);
}
