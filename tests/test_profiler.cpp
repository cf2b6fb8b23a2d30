//===- tests/test_profiler.cpp - drag profiler (phase 1) tests ------------===//

#include "profiler/DragProfiler.h"
#include "profiler/ObjectTable.h"

#include "vm/VirtualMachine.h"

#include "VMTestUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <random>
#include <vector>

using namespace jdrag;
using namespace jdrag::ir;
using namespace jdrag::profiler;
using namespace jdrag::vm;
using jdrag::testutil::TestProgramBuilder;

/// Finds a field by class/name in the program under construction.
#define PB_FIELD(T, CLS, FLD)                                                  \
  (T).PB.program().findField((T).PB.program().findClass(CLS), (FLD))

namespace {

/// Runs \p P under the profiler with the paper's 100 KB deep-GC interval.
ProfileLog profileRun(const Program &P, ProfilerConfig PC = ProfilerConfig(),
                      std::uint64_t Interval = 100 * KB) {
  DragProfiler Prof(P, std::move(PC));
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = Interval;
  Prof.attachTo(Opts);
  VirtualMachine VM(P, Opts);
  std::string Err;
  EXPECT_EQ(VM.run(&Err), Interpreter::Status::Ok) << Err;
  return Prof.takeLog();
}

/// A program with one "hot" class allocated in a helper, used, dropped,
/// plus filler allocation to drive deep GCs.
Program buildDragProgram(TestProgramBuilder &T) {
  ClassBuilder Box = T.PB.beginClass("Box", T.PB.objectClass());
  FieldId V = Box.addField("v", ValueKind::Int);
  MethodBuilder Ctor =
      Box.beginMethod("<init>", {ValueKind::Int}, ValueKind::Void);
  Ctor.aload(0).invokespecial(T.PB.objectCtor());
  Ctor.aload(0).iload(1).putfield(V).ret();
  Ctor.finish();

  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  // makeBox(int) -> Box  (gives the allocation a nested site)
  MethodBuilder Make = MainC.beginMethod("makeBox", {ValueKind::Int},
                                         ValueKind::Ref, /*IsStatic=*/true);
  Make.stmt();
  Make.new_(Box.id()).dup().iload(0).invokespecial(Ctor.id()).aret();
  Make.finish();

  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t B = M.newLocal(ValueKind::Ref);
  std::uint32_t I = M.newLocal(ValueKind::Int);
  // Box b = makeBox(3); use it; then keep it reachable but unused while
  // 400 KB of filler allocates (several deep-GC intervals of drag).
  M.stmt();
  M.iconst(3).invokestatic(Make.id()).astore(B);
  M.aload(B).getfield(PB_FIELD(T, "Box", "v")).invokestatic(T.Emit);
  Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(100).istore(I);
  M.bind(Loop);
  M.iload(I).ifLeZ(Done);
  M.iconst(1024).newarray(ArrayKind::Int).pop(); // ~4KB filler
  M.iload(I).iconst(1).isub().istore(I);
  M.goto_(Loop);
  M.bind(Done);
  M.aload(B).pop(); // reference copy: NOT a use
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  return T.finishVerified();
}

} // namespace

TEST(Profiler, RecordsEveryObjectOnce) {
  TestProgramBuilder T;
  Program P = buildDragProgram(T);
  ProfileLog Log = profileRun(P);
  // 1 Box + 100 filler arrays (OOM preallocation has no trailer).
  EXPECT_EQ(Log.Records.size(), 101u);
  for (const ObjectRecord &R : Log.Records) {
    EXPECT_LE(R.AllocTime, R.LastUseTime);
    EXPECT_LE(R.LastUseTime, R.CollectTime);
    EXPECT_GT(R.Bytes, 0u);
  }
  EXPECT_GT(Log.EndTime, 400 * KB);
}

TEST(Profiler, DragOfHeldButUnusedObject) {
  TestProgramBuilder T;
  Program P = buildDragProgram(T);
  ProfileLog Log = profileRun(P);

  ClassId Box = P.findClass("Box");
  const ObjectRecord *BoxRec = nullptr;
  for (const ObjectRecord &R : Log.Records)
    if (!R.IsArray && R.Class == Box)
      BoxRec = &R;
  ASSERT_NE(BoxRec, nullptr);
  EXPECT_TRUE(BoxRec->UsedOutsideInit);
  EXPECT_GT(BoxRec->UseCount, 0u);
  // Used early, dragged while ~400 KB of filler allocated.
  EXPECT_GT(BoxRec->dragTime(), 300 * KB);
  EXPECT_GT(BoxRec->drag(), 0.0);
}

TEST(Profiler, NestedAllocationSiteChain) {
  TestProgramBuilder T;
  Program P = buildDragProgram(T);
  ProfileLog Log = profileRun(P);

  ClassId Box = P.findClass("Box");
  const ObjectRecord *BoxRec = nullptr;
  for (const ObjectRecord &R : Log.Records)
    if (!R.IsArray && R.Class == Box)
      BoxRec = &R;
  ASSERT_NE(BoxRec, nullptr);
  const auto &Chain = Log.Sites.chain(BoxRec->AllocSite);
  ASSERT_GE(Chain.size(), 2u);
  EXPECT_EQ(P.qualifiedMethodName(Chain[0].Method), "Main.makeBox");
  EXPECT_EQ(P.qualifiedMethodName(Chain[1].Method), "Main.main");
  std::string Desc = Log.Sites.describe(P, BoxRec->AllocSite);
  EXPECT_NE(Desc.find("Main.makeBox"), std::string::npos);
  EXPECT_NE(Desc.find(" <- Main.main"), std::string::npos);
}

TEST(Profiler, SiteDepthTrimsChain) {
  TestProgramBuilder T;
  Program P = buildDragProgram(T);
  ProfilerConfig PC;
  PC.SiteDepth = 1;
  ProfileLog Log = profileRun(P, PC);
  for (const ObjectRecord &R : Log.Records)
    EXPECT_LE(Log.Sites.chain(R.AllocSite).size(), 1u);
}

TEST(Profiler, NeverUsedDetection) {
  TestProgramBuilder T;
  ClassBuilder Dead = T.PB.beginClass("Dead", T.PB.objectClass());
  FieldId DV = Dead.addField("v", ValueKind::Int);
  // Constructor writes this.v: a use *during own init* only.
  MethodBuilder Ctor = Dead.beginMethod("<init>", {}, ValueKind::Void);
  Ctor.aload(0).invokespecial(T.PB.objectCtor());
  Ctor.aload(0).iconst(1).putfield(DV).ret();
  Ctor.finish();

  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.new_(Dead.id()).dup().invokespecial(Ctor.id()).pop();
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  ProfileLog Log = profileRun(P);
  ClassId DeadC = P.findClass("Dead");
  bool Found = false;
  for (const ObjectRecord &R : Log.Records)
    if (!R.IsArray && R.Class == DeadC) {
      Found = true;
      EXPECT_TRUE(R.neverUsed()) << "ctor-only uses must stay never-used";
      EXPECT_GT(R.UseCount, 0u) << "ctor uses are still counted";
    }
  EXPECT_TRUE(Found);
}

TEST(Profiler, UseOutsideInitClearsNeverUsed) {
  TestProgramBuilder T;
  ClassBuilder C = T.PB.beginClass("C", T.PB.objectClass());
  FieldId V = C.addField("v", ValueKind::Int);
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t O = M.newLocal(ValueKind::Ref);
  M.new_(C.id()).dup().invokespecial(T.PB.objectCtor()).astore(O);
  M.aload(O).getfield(V).pop(); // a real use
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  ProfileLog Log = profileRun(P);
  ClassId CC = P.findClass("C");
  for (const ObjectRecord &R : Log.Records)
    if (!R.IsArray && R.Class == CC) {
      EXPECT_FALSE(R.neverUsed());
    }
}

TEST(Profiler, SurvivorsFlaggedAtTermination) {
  TestProgramBuilder T;
  ClassBuilder C = T.PB.beginClass("C", T.PB.objectClass());
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  FieldId Keep =
      MainC.addField("keep", ValueKind::Ref, Visibility::Public, true);
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.new_(C.id()).dup().invokespecial(T.PB.objectCtor()).putstatic(Keep);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  ProfileLog Log = profileRun(P);
  ClassId CC = P.findClass("C");
  bool Found = false;
  for (const ObjectRecord &R : Log.Records)
    if (!R.IsArray && R.Class == CC) {
      Found = true;
      EXPECT_TRUE(R.SurvivedToEnd);
      EXPECT_EQ(R.CollectTime, Log.EndTime);
    }
  EXPECT_TRUE(Found);
}

TEST(Profiler, UseTimesSnapToIntervalStart) {
  // An object allocated at ~0 and used continuously: with snapping, the
  // last use time equals the last deep-GC boundary, not the exact clock.
  TestProgramBuilder T;
  ClassBuilder C = T.PB.beginClass("C", T.PB.objectClass());
  FieldId V = C.addField("v", ValueKind::Int);
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t O = M.newLocal(ValueKind::Ref);
  std::uint32_t I = M.newLocal(ValueKind::Int);
  M.new_(C.id()).dup().invokespecial(T.PB.objectCtor()).astore(O);
  Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(50).istore(I);
  M.bind(Loop);
  M.iload(I).ifLeZ(Done);
  M.aload(O).getfield(V).pop();                 // use each iteration
  M.iconst(1024).newarray(ArrayKind::Int).pop(); // filler
  M.iload(I).iconst(1).isub().istore(I);
  M.goto_(Loop);
  M.bind(Done);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  ClassId CC = P.findClass("C");
  auto FindRec = [&](const ProfileLog &Log) -> ObjectRecord {
    for (const ObjectRecord &R : Log.Records)
      if (!R.IsArray && R.Class == CC)
        return R;
    ADD_FAILURE() << "record not found";
    return ObjectRecord();
  };

  ProfilerConfig Snap;
  Snap.SnapUseTimes = true;
  ProfileLog SnapLog = profileRun(P, Snap, 50 * KB);
  ProfilerConfig Exact;
  Exact.SnapUseTimes = false;
  ProfileLog ExactLog = profileRun(P, Exact, 50 * KB);

  ObjectRecord SnapRec = FindRec(SnapLog);
  ObjectRecord ExactRec = FindRec(ExactLog);
  // Snapped last-use is a deep-GC boundary (multiple of nothing exact,
  // but strictly earlier than the exact last use).
  EXPECT_LT(SnapRec.LastUseTime, ExactRec.LastUseTime);
  EXPECT_GE(SnapRec.dragTime(), ExactRec.dragTime());
}

TEST(Profiler, ExcludedClassesNotLogged) {
  TestProgramBuilder T;
  ClassBuilder C = T.PB.beginClass("C", T.PB.objectClass());
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.new_(C.id()).dup().invokespecial(T.PB.objectCtor()).pop();
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  ProfilerConfig PC;
  PC.ExcludedClasses.push_back(P.findClass("C"));
  ProfileLog Log = profileRun(P, PC);
  for (const ObjectRecord &R : Log.Records)
    EXPECT_TRUE(R.IsArray || R.Class != P.findClass("C"));
}

TEST(Profiler, GCSamplesRecorded) {
  TestProgramBuilder T;
  Program P = buildDragProgram(T);
  ProfileLog Log = profileRun(P);
  // 400 KB of filler with a 100 KB interval: at least 4 deep GCs, each
  // contributing two samples (GC + GC after finalization).
  EXPECT_GE(Log.GCSamples.size(), 8u);
  for (const GCSample &S : Log.GCSamples)
    EXPECT_LE(S.Time, Log.EndTime);
}

TEST(Profiler, LastUseSiteRecorded) {
  TestProgramBuilder T;
  Program P = buildDragProgram(T);
  ProfileLog Log = profileRun(P);
  ClassId Box = P.findClass("Box");
  for (const ObjectRecord &R : Log.Records)
    if (!R.IsArray && R.Class == Box) {
      ASSERT_NE(R.LastUseSite, InvalidSite);
      std::string Desc = Log.Sites.describe(P, R.LastUseSite);
      EXPECT_NE(Desc.find("Main.main"), std::string::npos);
    }
}

TEST(ProfileLogIO, FileRoundTrip) {
  TestProgramBuilder T;
  Program P = buildDragProgram(T);
  ProfileLog Log = profileRun(P);

  std::string Path = testing::TempDir() + "/jdrag_log_test.bin";
  ASSERT_TRUE(Log.writeFile(Path));
  ProfileLog Back;
  ASSERT_TRUE(ProfileLog::readFile(Path, Back));

  ASSERT_EQ(Back.Records.size(), Log.Records.size());
  EXPECT_EQ(Back.EndTime, Log.EndTime);
  EXPECT_EQ(Back.GCSamples.size(), Log.GCSamples.size());
  EXPECT_EQ(Back.Sites.size(), Log.Sites.size());
  for (std::size_t I = 0; I != Log.Records.size(); ++I) {
    EXPECT_EQ(Back.Records[I].Id, Log.Records[I].Id);
    EXPECT_EQ(Back.Records[I].Bytes, Log.Records[I].Bytes);
    EXPECT_EQ(Back.Records[I].AllocSite, Log.Records[I].AllocSite);
    EXPECT_EQ(Back.Records[I].LastUseTime, Log.Records[I].LastUseTime);
  }
  EXPECT_DOUBLE_EQ(Back.totalDrag(), Log.totalDrag());
}

TEST(ProfileLogIO, RejectsGarbageFile) {
  std::string Path = testing::TempDir() + "/jdrag_garbage.bin";
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("not a log", F);
  std::fclose(F);
  ProfileLog Out;
  EXPECT_FALSE(ProfileLog::readFile(Path, Out));
  EXPECT_FALSE(ProfileLog::readFile("/nonexistent/file", Out));
}

TEST(ProfileLog, IntegralIdentities) {
  TestProgramBuilder T;
  Program P = buildDragProgram(T);
  ProfileLog Log = profileRun(P);
  // reachable integral = in-use integral + total drag, by definition.
  EXPECT_NEAR(Log.reachableIntegral(), Log.inUseIntegral() + Log.totalDrag(),
              1.0);
  EXPECT_GE(Log.reachableIntegral(), Log.inUseIntegral());
}

TEST(ProfileLogIO, RejectsOldFormatMagic) {
  // A v01-magic file must be rejected by the current reader.
  std::string Path = testing::TempDir() + "/jdrag_oldmagic.bin";
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::uint64_t OldMagic = 0x6a64726167763031ULL;
  std::fwrite(&OldMagic, sizeof(OldMagic), 1, F);
  std::fclose(F);
  ProfileLog Out;
  EXPECT_FALSE(ProfileLog::readFile(Path, Out));
}

TEST(ProfileLogIO, RejectsTruncatedFile) {
  // A valid log chopped at any point after the header must be rejected:
  // the reader bounds every section count against the remaining file
  // size and demands the GC-sample section consume it exactly.
  TestProgramBuilder T;
  Program P = buildDragProgram(T);
  ProfileLog Log = profileRun(P);
  std::string Path = testing::TempDir() + "/jdrag_trunc_src.bin";
  ASSERT_TRUE(Log.writeFile(Path));

  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  std::vector<char> Bytes(1 << 20);
  std::size_t N = std::fread(Bytes.data(), 1, Bytes.size(), F);
  std::fclose(F);
  ASSERT_GT(N, 64u);
  Bytes.resize(N);

  // Several cut points: mid-header, mid-sites, mid-records, and one
  // byte short of complete.
  for (std::size_t Cut : {std::size_t(12), std::size_t(40), N / 2, N - 1}) {
    std::string CutPath = testing::TempDir() + "/jdrag_trunc_cut.bin";
    std::FILE *G = std::fopen(CutPath.c_str(), "wb");
    ASSERT_NE(G, nullptr);
    ASSERT_EQ(std::fwrite(Bytes.data(), 1, Cut, G), Cut);
    std::fclose(G);
    ProfileLog Out;
    EXPECT_FALSE(ProfileLog::readFile(CutPath, Out)) << "cut at " << Cut;
  }
}

TEST(ProfileLogIO, RejectsTrailingGarbage) {
  // Extra bytes after the GC-sample section mean the file was not
  // written by us -- reject rather than silently ignore.
  TestProgramBuilder T;
  Program P = buildDragProgram(T);
  ProfileLog Log = profileRun(P);
  std::string Path = testing::TempDir() + "/jdrag_trailing.bin";
  ASSERT_TRUE(Log.writeFile(Path));
  std::FILE *F = std::fopen(Path.c_str(), "ab");
  ASSERT_NE(F, nullptr);
  std::fputs("x", F);
  std::fclose(F);
  ProfileLog Out;
  EXPECT_FALSE(ProfileLog::readFile(Path, Out));
}

TEST(ProfileLogIO, RejectsAbsurdSectionCounts) {
  // A header claiming more records than the file could possibly hold
  // must be rejected up front (no giant reserve, no short-read loop).
  std::string Path = testing::TempDir() + "/jdrag_absurd.bin";
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::uint64_t Magic = 0x6a64726167763033ULL; // current magic
  std::uint32_t Version = 3, RecordBytes = 64;
  std::uint64_t EndTime = 0, NumSites = 0xffffffffu;
  std::fwrite(&Magic, sizeof(Magic), 1, F);
  std::fwrite(&Version, sizeof(Version), 1, F);
  std::fwrite(&RecordBytes, sizeof(RecordBytes), 1, F);
  std::fwrite(&EndTime, sizeof(EndTime), 1, F);
  std::fwrite(&NumSites, sizeof(NumSites), 1, F);
  std::fclose(F);
  ProfileLog Out;
  EXPECT_FALSE(ProfileLog::readFile(Path, Out));
}

TEST(Profiler, FirstUseTimeTracked) {
  TestProgramBuilder T;
  ClassBuilder C = T.PB.beginClass("C", T.PB.objectClass());
  FieldId V = C.addField("v", ValueKind::Int);
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t O = M.newLocal(ValueKind::Ref);
  std::uint32_t I = M.newLocal(ValueKind::Int);
  // Allocate, let ~200 KB pass (lag), then use, then 200 KB more (drag).
  M.new_(C.id()).dup().invokespecial(T.PB.objectCtor()).astore(O);
  Label L1 = M.newLabel(), D1 = M.newLabel();
  M.iconst(50).istore(I);
  M.bind(L1);
  M.iload(I).ifLeZ(D1);
  M.iconst(1016).newarray(ArrayKind::Int).pop();
  M.iload(I).iconst(1).isub().istore(I);
  M.goto_(L1);
  M.bind(D1);
  M.aload(O).getfield(V).pop(); // first (and last) real use
  Label L2 = M.newLabel(), D2 = M.newLabel();
  M.iconst(50).istore(I);
  M.bind(L2);
  M.iload(I).ifLeZ(D2);
  M.iconst(1016).newarray(ArrayKind::Int).pop();
  M.iload(I).iconst(1).isub().istore(I);
  M.goto_(L2);
  M.bind(D2);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();

  ProfileLog Log = profileRun(P, ProfilerConfig(), 50 * KB);
  ClassId CC = P.findClass("C");
  for (const ObjectRecord &R : Log.Records)
    if (!R.IsArray && R.Class == CC) {
      EXPECT_GT(R.lagTime(), 100 * KB) << "lag spans the first filler";
      EXPECT_GT(R.dragTime(), 100 * KB) << "drag spans the second filler";
      EXPECT_EQ(R.FirstUseTime, R.LastUseTime) << "single use";
      EXPECT_LE(R.AllocTime, R.FirstUseTime);
      EXPECT_LE(R.FirstUseTime, R.LastUseTime);
    }
}

//===----------------------------------------------------------------------===//
// ObjectTable: the live-object side table
//===----------------------------------------------------------------------===//

namespace {

/// A slot type whose default value shows whether insert() constructed it.
struct Cell {
  std::uint64_t Val = 7;
  std::uint32_t Touches = 0;
};

/// Ids Base, Base + Stride, ... (N of them, wrapping mod 2^64).
std::vector<std::uint64_t> strided(std::uint64_t Base, std::uint64_t Stride,
                                   std::size_t N) {
  std::vector<std::uint64_t> Ids;
  for (std::size_t I = 0; I != N; ++I)
    Ids.push_back(Base + Stride * I);
  return Ids;
}

std::vector<std::uint64_t> liveIds(const ObjectTable<Cell> &T) {
  std::vector<std::uint64_t> Ids;
  T.forEachLive([&](std::uint64_t Id, const Cell &C) {
    EXPECT_EQ(C.Val, Id ^ 0x5a5a) << Id;
    Ids.push_back(Id);
  });
  return Ids;
}

} // namespace

TEST(ObjectTable, DenseIds) {
  ObjectTable<Cell> T;
  for (std::uint64_t Id = 1; Id <= 10000; ++Id)
    T.insert(Id).Val = Id ^ 0x5a5a;
  EXPECT_EQ(T.size(), 10000u);
  for (std::uint64_t Id = 1; Id <= 10000; Id += 2)
    T.erase(Id);
  EXPECT_EQ(T.size(), 5000u);
  EXPECT_EQ(T.find(0), nullptr);
  EXPECT_EQ(T.find(10001), nullptr);
  for (std::uint64_t Id = 1; Id <= 10000; ++Id) {
    Cell *C = T.find(Id);
    if (Id % 2) {
      EXPECT_EQ(C, nullptr) << Id;
    } else {
      ASSERT_NE(C, nullptr) << Id;
      EXPECT_EQ(C->Val, Id ^ 0x5a5a);
    }
  }
}

TEST(ObjectTable, SparseIdsAtSampledStride) {
  // A 64 KiB-sampled javac stream carries about one id in 2 300.
  ObjectTable<Cell> T;
  std::vector<std::uint64_t> Ids = strided(1, 2300, 2000);
  for (std::uint64_t Id : Ids)
    T.insert(Id).Val = Id ^ 0x5a5a;
  EXPECT_EQ(T.size(), Ids.size());
  for (std::uint64_t Id : Ids) {
    ASSERT_NE(T.find(Id), nullptr) << Id;
    EXPECT_EQ(T.find(Id + 1), nullptr) << Id;
    EXPECT_EQ(T.find(Id + 1150), nullptr) << Id;
  }
  EXPECT_EQ(liveIds(T), Ids);
  // One page per live object, not one per 4 096 ids of span.
  EXPECT_LT(T.stateBytes(), Ids.size() * (64 * sizeof(Cell) + 256));
}

TEST(ObjectTable, IdsAtTheTopOfTheRange) {
  constexpr std::uint64_t Max = std::numeric_limits<std::uint64_t>::max();
  ObjectTable<Cell> T;
  T.insert(Max - 1).Val = (Max - 1) ^ 0x5a5a;
  T.insert(Max).Val = Max ^ 0x5a5a;
  T.insert(0).Val = 0x5a5a;
  ASSERT_NE(T.find(Max - 1), nullptr);
  EXPECT_EQ(T.find(Max - 1)->Val, (Max - 1) ^ 0x5a5a);
  EXPECT_EQ(T.find(Max - 2), nullptr);
  EXPECT_EQ(liveIds(T), (std::vector<std::uint64_t>{0, Max - 1, Max}));
  T.erase(Max - 1);
  EXPECT_EQ(T.find(Max - 1), nullptr);
  EXPECT_NE(T.find(Max), nullptr);
  EXPECT_LT(T.stateBytes(), std::size_t(64) << 10);
}

TEST(ObjectTable, EraseThenReinsertStartsFresh) {
  ObjectTable<Cell> T;
  Cell &C = T.insert(42);
  EXPECT_EQ(C.Val, 7u); // constructed on insert
  C.Val = 99;
  C.Touches = 3;
  T.erase(42);
  EXPECT_EQ(T.find(42), nullptr);
  EXPECT_EQ(T.size(), 0u);
  Cell &D = T.findOrInsert(42);
  EXPECT_EQ(D.Val, 7u);
  EXPECT_EQ(D.Touches, 0u);
  // findOrInsert keeps a live slot; insert starts it over.
  D.Touches = 5;
  EXPECT_EQ(T.findOrInsert(42).Touches, 5u);
  EXPECT_EQ(T.insert(42).Touches, 0u);
  EXPECT_EQ(T.size(), 1u);
}

TEST(ObjectTable, StaleIdFindsNull) {
  ObjectTable<Cell> T;
  for (std::uint64_t Id = 0; Id != 200; ++Id)
    T.insert(Id);
  for (std::uint64_t Id = 0; Id != 128; ++Id)
    T.erase(Id); // drains two whole pages behind the frontier
  T.erase(5);    // double erase is a no-op
  EXPECT_EQ(T.size(), 72u);
  for (std::uint64_t Id = 0; Id != 128; ++Id)
    EXPECT_EQ(T.find(Id), nullptr) << Id;
  EXPECT_EQ(T.find(std::uint64_t(1) << 40), nullptr);
  // A drained page is reused for a far-away id without leaking the
  // old page's slots into it.
  T.insert(std::uint64_t(1) << 40);
  EXPECT_EQ(T.find((std::uint64_t(1) << 40) + 1), nullptr);
  EXPECT_EQ(T.find(3), nullptr);
}

TEST(ObjectTable, ForEachLiveVisitsEachIdOnceInIdOrder) {
  std::vector<std::uint64_t> Ids = strided(3, 37, 3000);
  std::vector<std::uint64_t> Far = strided(std::uint64_t(1) << 50,
                                           std::uint64_t(1) << 33, 50);
  Ids.insert(Ids.end(), Far.begin(), Far.end());
  std::vector<std::uint64_t> Shuffled = Ids;
  std::shuffle(Shuffled.begin(), Shuffled.end(), std::mt19937_64(11));

  ObjectTable<Cell> A, B;
  for (std::uint64_t Id : Ids)
    A.insert(Id).Val = Id ^ 0x5a5a;
  for (std::uint64_t Id : Shuffled)
    B.insert(Id).Val = Id ^ 0x5a5a;
  std::vector<std::uint64_t> Live;
  for (std::size_t I = 0; I != Ids.size(); ++I) {
    if (I % 3 == 0) {
      A.erase(Ids[I]);
      B.erase(Ids[I]);
    } else {
      Live.push_back(Ids[I]);
    }
  }
  std::sort(Live.begin(), Live.end());
  EXPECT_EQ(liveIds(A), Live);
  EXPECT_EQ(liveIds(B), Live); // insertion order does not leak through
}

TEST(ObjectTable, StateBytesIndependentOfIdStride) {
  ObjectTable<Cell> Sampled, Hostile;
  for (std::uint64_t Id : strided(1, 2300, 500))
    Sampled.insert(Id);
  for (std::uint64_t Id : strided(1, std::uint64_t(1) << 40, 500))
    Hostile.insert(Id);
  EXPECT_EQ(Sampled.stateBytes(), Hostile.stateBytes());
  EXPECT_LT(Hostile.stateBytes(), std::size_t(4) << 20);
}

TEST(ObjectTable, ChurnBehindTheFrontierStaysBounded) {
  // A million short-lived objects, at most 100 live at once: drained
  // pages are recycled, so state follows the live set.
  ObjectTable<Cell> T;
  std::size_t Peak = 0;
  for (std::uint64_t Id = 0; Id != 1000000; ++Id) {
    T.insert(Id);
    if (Id >= 100)
      T.erase(Id - 100);
    Peak = std::max(Peak, T.stateBytes());
  }
  EXPECT_EQ(T.size(), 100u);
  EXPECT_LT(Peak, std::size_t(64) << 10);
}

TEST(ObjectTable, SparseChurnKeepsNoEmptyPages) {
  // Each sampled object dies before the next one is allocated: an empty
  // frontier page is released as soon as a later page replaces it.
  ObjectTable<Cell> T;
  for (std::uint64_t Id : strided(1, 2300, 10000)) {
    T.insert(Id);
    T.erase(Id);
  }
  EXPECT_EQ(T.size(), 0u);
  EXPECT_LT(T.stateBytes(), std::size_t(16) << 10);
}
