//===- tests/test_interpfastpath.cpp - VM golden-digest tests -------------===//
//
// Part of jdrag test suite.
//
// The VM hot path (docs/vm-hotpath.md) -- computed-goto dispatch, the
// per-pc site-id inline caches, the allocation fast path and the
// page-span heap (docs/heap.md) -- must not change what a program does
// or what the profiler sees. tests/data/vm_golden.txt is the oracle:
// one row per case (decoded-event count and digest, status, step count,
// outputs digest), recorded while the pre-optimization interpreter and
// the legacy flat heap were still live and matched the hot path bit for
// bit. This suite runs each case and compares it with its row, over the
// nine paper workloads and over synthetic programs that poke the
// boundaries the fast paths must not blur (finalizers, caught OOM,
// generational scheduling, uncaught exceptions). On a mismatch it
// prints the actual row; it never rewrites the file.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "profiler/DragProfiler.h"
#include "profiler/EventStream.h"
#include "vm/VirtualMachine.h"

#include "VMTestUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

using namespace jdrag;
using namespace jdrag::ir;
using namespace jdrag::vm;
using namespace jdrag::testutil;

namespace {

/// Everything observable from one recorded run.
struct StreamRun {
  Interpreter::Status Status = Interpreter::Status::Ok;
  std::vector<std::byte> Bytes;
  std::vector<std::int64_t> Outputs;
  std::uint64_t Steps = 0;
};

StreamRun record(const Program &P, const std::vector<std::int64_t> &In,
                 VMOptions Opts) {
  profiler::MemorySink Sink;
  Opts.Sink = &Sink;
  VirtualMachine VM(P, Opts);
  VM.setInputs(In);
  StreamRun R;
  R.Status = VM.run();
  R.Bytes.assign(Sink.bytes().begin(), Sink.bytes().end());
  R.Outputs = VM.outputs();
  R.Steps = VM.interpreter().steps();
  return R;
}

/// 64-bit FNV-1a over a byte range: the golden file's digest.
std::uint64_t fnv1a(const void *Data, std::size_t Size) {
  const auto *B = static_cast<const unsigned char *>(Data);
  std::uint64_t H = 0xcbf29ce484222325ULL;
  for (std::size_t I = 0; I != Size; ++I) {
    H ^= B[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// FNV-1a over the decoded event sequence: every DefineSite (id and
/// frames) and every event's fields, a Collect's or Survivor's trailer
/// included, in stream order. Unlike a digest of the wire bytes it does
/// not depend on how records are encoded or where chunks end, only on
/// what a consumer receives.
class DecodedDigest : public profiler::EventConsumer {
public:
  std::uint64_t Hash = 0xcbf29ce484222325ULL;
  std::uint64_t Events = 0;

  void onSite(profiler::SiteId Id,
              std::span<const profiler::SiteFrame> Frames) override {
    mix(static_cast<std::uint8_t>(profiler::EventKind::DefineSite));
    mix(Id);
    mix(static_cast<std::uint64_t>(Frames.size()));
    for (const profiler::SiteFrame &F : Frames) {
      mix(F.Method.Index);
      mix(F.Pc);
      mix(F.Line);
    }
    ++Events;
  }
  void onEvent(const profiler::EventRecord &E) override {
    mix(E.Kind);
    mix(E.Time);
    mix(E.Id);
    mix(E.Arg0);
    mix(E.Arg1);
    mix(E.Site);
    mix(E.Sub);
    mix(E.Flags);
    if (E.kind() == profiler::EventKind::Collect ||
        E.kind() == profiler::EventKind::Survivor) {
      mix(E.AllocTime);
      mix(E.FirstUseTime);
      mix(E.FirstUseBoundary);
      mix(E.LastUseTime);
      mix(E.LastUseBoundary);
      mix(E.LastUseSite);
      mix(E.UseCount);
    }
    ++Events;
  }

private:
  template <class T> void mix(T V) {
    unsigned char B[sizeof(T)];
    std::memcpy(B, &V, sizeof(T));
    for (unsigned char C : B) {
      Hash ^= C;
      Hash *= 0x100000001b3ULL;
    }
  }
};

/// FNV-1a over a replayed ProfileLog: every record field in log order,
/// every site's frames, every GC sample and the end time. It pins what
/// phase 2 receives whatever the stream format carries.
std::uint64_t profileLogDigest(const profiler::ProfileLog &Log) {
  std::uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](auto V) {
    unsigned char B[sizeof(V)];
    std::memcpy(B, &V, sizeof(V));
    for (unsigned char C : B) {
      H ^= C;
      H *= 0x100000001b3ULL;
    }
  };
  Mix(static_cast<std::uint64_t>(Log.Records.size()));
  for (const profiler::ObjectRecord &R : Log.Records) {
    Mix(R.Id);
    Mix(R.Class.Index);
    Mix(static_cast<std::uint8_t>(R.AKind));
    Mix(R.IsArray);
    Mix(R.Bytes);
    Mix(R.AllocTime);
    Mix(R.FirstUseTime);
    Mix(R.LastUseTime);
    Mix(R.CollectTime);
    Mix(R.AllocSite);
    Mix(R.LastUseSite);
    Mix(R.UseCount);
    Mix(R.UsedOutsideInit);
    Mix(R.SurvivedToEnd);
  }
  Mix(Log.Sites.size());
  for (profiler::SiteId S = 0; S != Log.Sites.size(); ++S) {
    Mix(static_cast<std::uint64_t>(Log.Sites.chain(S).size()));
    for (const profiler::SiteFrame &F : Log.Sites.chain(S)) {
      Mix(F.Method.Index);
      Mix(F.Pc);
      Mix(F.Line);
    }
  }
  Mix(static_cast<std::uint64_t>(Log.GCSamples.size()));
  for (const profiler::GCSample &G : Log.GCSamples) {
    Mix(G.Time);
    Mix(G.ReachableBytes);
    Mix(G.ReachableObjects);
  }
  Mix(Log.EndTime);
  return H;
}

/// The digest of the ProfileLog that \p Bytes replays to through a
/// DragProfiler with use times snapped (the paper's rule) or exact.
std::uint64_t replayedLogDigest(const Program &P,
                                std::span<const std::byte> Bytes, bool Snap,
                                const std::string &Label) {
  profiler::ProfilerConfig Config;
  Config.SnapUseTimes = Snap;
  profiler::DragProfiler Prof(P, Config);
  std::string Err;
  EXPECT_TRUE(profiler::replayBytes(Bytes, Prof, &Err)) << Label << ": "
                                                        << Err;
  return profileLogDigest(Prof.log());
}

std::string statusField(Interpreter::Status Status) {
  std::string St = statusName(Status);
  for (char &C : St)
    if (C == ' ')
      C = '-';
  return St;
}

std::uint64_t outputsDigest(const std::vector<std::int64_t> &Outputs) {
  return fnv1a(Outputs.data(), Outputs.size() * sizeof(std::int64_t));
}

/// The profile-log row: `<label> bytes=N digest=H status=S steps=N
/// outputs=H`, where \p Bytes is the serialized ProfileLog and outputs
/// are digested as little-endian int64s.
std::string goldenLine(const std::string &Label, const void *Bytes,
                       std::size_t Size, Interpreter::Status Status,
                       std::uint64_t Steps,
                       const std::vector<std::int64_t> &Outputs) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                " bytes=%zu digest=%016llx status=%s steps=%llu "
                "outputs=%016llx",
                Size, static_cast<unsigned long long>(fnv1a(Bytes, Size)),
                statusField(Status).c_str(),
                static_cast<unsigned long long>(Steps),
                static_cast<unsigned long long>(outputsDigest(Outputs)));
  return Label + Buf;
}

/// A recorded case's row: `<label> events=N decoded=H status=S steps=N
/// outputs=H log=H`, where events/decoded describe the sequence the
/// recorded stream decodes to and log is the digest of the ProfileLog
/// it replays to with snapped use times.
std::string streamLine(const Program &P, const std::string &Label,
                       const StreamRun &R) {
  DecodedDigest D;
  std::string Err;
  EXPECT_TRUE(profiler::replayBytes(R.Bytes, D, &Err)) << Label << ": " << Err;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                " events=%llu decoded=%016llx status=%s steps=%llu "
                "outputs=%016llx log=%016llx",
                static_cast<unsigned long long>(D.Events),
                static_cast<unsigned long long>(D.Hash),
                statusField(R.Status).c_str(),
                static_cast<unsigned long long>(R.Steps),
                static_cast<unsigned long long>(outputsDigest(R.Outputs)),
                static_cast<unsigned long long>(
                    replayedLogDigest(P, R.Bytes, /*Snap=*/true, Label)));
  return Label + Buf;
}

/// The `<label>+unsnapped log=H` row: the digest of the ProfileLog the
/// recorded stream replays to with exact (unsnapped) use times, the
/// ablation of bench/ablation_snap_times.
std::string unsnappedLine(const Program &P, const std::string &Label,
                          const StreamRun &R) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "+unsnapped log=%016llx",
                static_cast<unsigned long long>(
                    replayedLogDigest(P, R.Bytes, /*Snap=*/false, Label)));
  return Label + Buf;
}

/// The committed rows of tests/data/vm_golden.txt, keyed by label.
const std::map<std::string, std::string> &goldenRows() {
  static const std::map<std::string, std::string> Rows = [] {
    std::map<std::string, std::string> R;
    std::ifstream In(JDRAG_TEST_DATA_DIR "/vm_golden.txt");
    EXPECT_TRUE(In.good()) << "cannot open tests/data/vm_golden.txt";
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty() || Line[0] == '#')
        continue;
      std::string Label = Line.substr(0, Line.find(' '));
      EXPECT_TRUE(R.emplace(Label, Line).second)
          << "duplicate golden row " << Label;
    }
    return R;
  }();
  return Rows;
}

void expectGolden(const std::string &Label, const std::string &Actual) {
  auto It = goldenRows().find(Label);
  if (It == goldenRows().end()) {
    ADD_FAILURE() << "no golden row for " << Label << "; actual line:\n"
                  << Actual;
    return;
  }
  EXPECT_EQ(It->second, Actual) << "golden mismatch; actual line:\n"
                                << Actual;
}

/// Checks a recorded case's row and its `+unsnapped` row.
void expectGolden(const Program &P, const std::string &Label,
                  const StreamRun &R) {
  expectGolden(Label, streamLine(P, Label, R));
  expectGolden(Label + "+unsnapped", unsnappedLine(P, Label, R));
}

/// Pid-unique scratch path: concurrent ctest runs (e.g. the default and
/// sanitize presets) must not share files.
std::string tempPath(const char *Name) {
  return std::string("/tmp/jdrag_fastpath_") + std::to_string(getpid()) +
         "_" + Name;
}

/// v6 leg: run the framed stream through the ChunkCompressor and
/// require every transformed frame to decompress back to the original
/// payload, CRC preserved -- the "decompressed payloads are
/// bit-identical to the uncompressed recording" guarantee, per workload.
void expectCompressionRoundTrip(std::span<const std::byte> Stream,
                                const std::string &Label) {
  profiler::ChunkCompressor Comp;
  std::vector<std::uint8_t> Inflate;
  std::size_t Off = 0;
  while (Off < Stream.size()) {
    profiler::ChunkHeader H;
    ASSERT_LE(Off + sizeof(H), Stream.size()) << Label;
    std::memcpy(&H, Stream.data() + Off, sizeof(H));
    bool Footer = H.Magic == profiler::FooterMagic;
    std::size_t Frame = sizeof(H) + H.PayloadBytes + (Footer ? 8 : 0);
    ASSERT_LE(Off + Frame, Stream.size()) << Label;
    std::span<const std::byte> T = Comp.transform(Stream.data() + Off, Frame);
    ASSERT_FALSE(T.empty()) << Label << ": compressor rejected frame at "
                            << Off;
    profiler::ChunkHeader W;
    ASSERT_GE(T.size(), sizeof(W)) << Label;
    std::memcpy(&W, T.data(), sizeof(W));
    EXPECT_EQ(W.Seq, H.Seq) << Label;
    std::span<const std::byte> Body;
    ASSERT_TRUE(
        profiler::chunkPayloadBytes(W, T.data() + sizeof(W), Inflate, Body))
        << Label << ": frame at " << Off << " does not decompress";
    if (!Footer) {
      EXPECT_EQ(W.Crc, H.Crc) << Label << ": CRC no longer covers the "
                              << "uncompressed payload";
      ASSERT_EQ(Body.size(), H.PayloadBytes) << Label;
      EXPECT_TRUE(std::memcmp(Body.data(), Stream.data() + Off + sizeof(H),
                              Body.size()) == 0)
          << Label << ": decompressed payload diverged at frame " << Off;
    }
    Off += Frame;
  }
}

/// Records one case and checks it against its golden row, plus the
/// compression round trip of its stream.
void expectRecordedGolden(const Program &P,
                          const std::vector<std::int64_t> &In, VMOptions Opts,
                          const std::string &Label) {
  StreamRun R = record(P, In, Opts);
  EXPECT_FALSE(R.Bytes.empty()) << Label;
  expectGolden(P, Label, R);
  expectCompressionRoundTrip(R.Bytes, Label);
}

/// Alloc/use churn with a finalizable class: every deep GC runs
/// finalizers (nested interpreter activations) between collections, so
/// the hoisted fast-path state must survive re-entry.
Program buildFinalizerChurn() {
  TestProgramBuilder T;
  ClassBuilder C = T.PB.beginClass("Fin", T.PB.objectClass());
  FieldId V = C.addField("v", ValueKind::Int);
  MethodBuilder Ctor = C.beginMethod("<init>", {}, ValueKind::Void);
  Ctor.aload(0).invokespecial(T.PB.objectCtor()).ret();
  Ctor.finish();
  // finalize() allocates and uses, driving events from inside the
  // nested activation.
  MethodBuilder Fin = C.beginMethod("finalize", {}, ValueKind::Void);
  Fin.iconst(3).newarray(ArrayKind::Int).pop();
  Fin.aload(0).getfield(V).pop();
  Fin.ret();
  Fin.finish();

  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t N = M.newLocal(ValueKind::Int);
  std::uint32_t I = M.newLocal(ValueKind::Int);
  std::uint32_t O = M.newLocal(ValueKind::Ref);
  M.iconst(0).invokestatic(T.Read).istore(N);
  Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(0).istore(I);
  M.bind(Loop);
  M.iload(I).iload(N).ifICmpGe(Done);
  M.new_(C.id()).dup().invokespecial(Ctor.id()).astore(O);
  M.aload(O).iload(I).putfield(V);
  M.iconst(40).newarray(ArrayKind::Int).pop(); // garbage to force GCs
  M.iload(I).iconst(1).iadd().istore(I);
  M.goto_(Loop);
  M.bind(Done);
  M.aload(O).getfield(V).invokestatic(T.Emit);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  return T.finishVerified();
}

/// Grows a reachable list until OOM, catches it, emits how far it got.
/// The live-byte budget boundary is exactly where the allocation fast
/// path must hand over to the slow path.
Program buildCaughtOOM() {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  FieldId Keep =
      MainC.addField("keep", ValueKind::Ref, Visibility::Public, true);
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t I = M.newLocal(ValueKind::Int);
  std::uint32_t Arr = M.newLocal(ValueKind::Ref);
  Label TS = M.newLabel(), TE = M.newLabel(), H = M.newLabel(),
        Done = M.newLabel();
  M.iconst(0).istore(I);
  M.bind(TS);
  Label Loop = M.newLabel();
  M.bind(Loop);
  M.iconst(100).newarray(ArrayKind::Ref).astore(Arr);
  M.aload(Arr).iconst(0).getstatic(Keep).aastore();
  M.aload(Arr).putstatic(Keep);
  M.iload(I).iconst(1).iadd().istore(I);
  M.goto_(Loop);
  M.bind(TE);
  M.goto_(Done);
  M.bind(H);
  M.pop().iload(I).invokestatic(T.Emit);
  M.bind(Done);
  M.ret();
  M.addHandler(TS, TE, H, T.PB.oomClass());
  M.finish();
  T.PB.setMain(M.id());
  return T.finishVerified();
}

/// main { throw } after some allocation -- the uncaught-exit path must
/// also leave identical streams behind.
Program buildUncaughtThrow() {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.iconst(16).newarray(ArrayKind::Int).pop();
  M.new_(T.PB.throwableClass())
      .dup()
      .invokespecial(
          T.PB.program().findDeclaredMethod(T.PB.throwableClass(), "<init>"))
      .athrow();
  M.finish();
  T.PB.setMain(M.id());
  return T.finishVerified();
}

TEST(HotPathDifferential, PaperWorkloads) {
  for (const benchmarks::BenchmarkProgram &B : benchmarks::buildAll()) {
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    expectRecordedGolden(B.Prog, B.DefaultInputs, Opts, B.Name);
  }
}

/// `--sample-bytes 0` is the exact mode, not a third pipeline: an
/// explicit zero must leave every stream byte identical to a VM that
/// never heard of sampling.
TEST(HotPathDifferential, SampleBytesZeroIsExactMode) {
  for (const benchmarks::BenchmarkProgram &B : benchmarks::buildAll()) {
    VMOptions Plain;
    Plain.DeepGCIntervalBytes = 100 * KB;
    StreamRun Ref = record(B.Prog, B.DefaultInputs, Plain);
    VMOptions Zero = Plain;
    Zero.SampleBytes = 0;
    Zero.SampleSeed = 12345; // seed must be inert when sampling is off
    StreamRun R = record(B.Prog, B.DefaultInputs, Zero);
    EXPECT_TRUE(R.Bytes == Ref.Bytes)
        << B.Name << ": --sample-bytes 0 stream diverged from exact";
  }
}

/// Sampling draws from a PRNG advanced once per allocation, so the
/// sampled stream is a pure function of the allocation sequence -- the
/// hot path must not perturb it either. Each workload's golden row was
/// taken while every dispatch/cache/heap combination still agreed on it.
TEST(HotPathDifferential, SampledStreamComboInvariant) {
  for (const benchmarks::BenchmarkProgram &B : benchmarks::buildAll()) {
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.SampleBytes = 64 * KB;
    expectRecordedGolden(B.Prog, B.DefaultInputs, Opts, B.Name + "+sampled");
  }
}

TEST(HotPathDifferential, FinalizerChurn) {
  Program P = buildFinalizerChurn();
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 16 * KB; // frequent deep GCs + finalizers
  expectRecordedGolden(P, {400}, Opts, "finalizer-churn");
}

TEST(HotPathDifferential, CaughtOOMAtLiveByteBudget) {
  Program P = buildCaughtOOM();
  VMOptions Opts;
  Opts.MaxLiveBytes = 64 * KB;
  expectRecordedGolden(P, {}, Opts, "caught-oom");
}

TEST(HotPathDifferential, GenerationalScheduledGC) {
  Program P = buildFinalizerChurn();
  VMOptions Opts;
  Opts.Generational.Enabled = true;
  Opts.Generational.NurseryBytes = 8 * KB; // frequent minor GCs
  expectRecordedGolden(P, {300}, Opts, "generational-churn");
}

/// The uncaught exit returns before the stream is finished, so nothing
/// is flushed: the row pins an empty stream.
TEST(HotPathDifferential, UncaughtThrow) {
  Program P = buildUncaughtThrow();
  StreamRun R = record(P, {}, VMOptions());
  EXPECT_EQ(R.Status, Interpreter::Status::UncaughtException);
  expectGolden(P, "uncaught-throw", R);
}

/// The live-profiling path (DragProfiler's dispatch sink consuming the
/// stream as it is produced) must end in a field-identical log; the
/// serialized form is the strongest equality available.
TEST(HotPathDifferential, ProfileLogIdentical) {
  Program P = buildFinalizerChurn();
  profiler::DragProfiler Prof(P);
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 16 * KB;
  Prof.attachTo(Opts);
  VirtualMachine VM(P, Opts);
  VM.setInputs({200});
  Interpreter::Status Status = VM.run();
  EXPECT_EQ(Status, Interpreter::Status::Ok);
  std::string Path = tempPath("log.bin");
  ASSERT_TRUE(Prof.log().writeFile(Path));
  std::ifstream In(Path, std::ios::binary);
  std::vector<char> Bytes((std::istreambuf_iterator<char>(In)),
                          std::istreambuf_iterator<char>());
  std::remove(Path.c_str());
  ASSERT_FALSE(Bytes.empty());
  expectGolden("profile-log",
               goldenLine("profile-log", Bytes.data(), Bytes.size(), Status,
                          VM.interpreter().steps(), VM.outputs()));
}

/// The interpreter mirrors the heap's byte clock (refreshed only at
/// allocation and GC boundaries) instead of reloading it per event. The
/// clock advances only at allocation, so every streamed timestamp must
/// be a value of the running allocation total: an object's alloc time
/// includes its own bytes, and every other time -- a record's, a use's,
/// a deep-GC boundary -- is the time of the last allocation before it.
/// In exact mode every allocation has a record, so the records' alloc
/// times and sizes rebuild the clock.
TEST(HotPathDifferential, CachedClockTimestampsExact) {
  class TimeCollector : public profiler::EventConsumer {
  public:
    std::vector<std::pair<ByteTime, std::uint64_t>> Allocs;
    std::vector<ByteTime> Times;
    void onSite(profiler::SiteId,
                std::span<const profiler::SiteFrame>) override {}
    void onEvent(const profiler::EventRecord &E) override {
      Times.push_back(E.Time);
      if (E.kind() != profiler::EventKind::Collect &&
          E.kind() != profiler::EventKind::Survivor)
        return;
      Allocs.push_back({E.AllocTime, E.Arg0});
      Times.insert(Times.end(), {E.FirstUseTime, E.FirstUseBoundary,
                                 E.LastUseTime, E.LastUseBoundary});
    }
  };
  Program P = buildFinalizerChurn();
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 16 * KB;
  StreamRun R = record(P, {300}, Opts);
  ASSERT_EQ(R.Status, Interpreter::Status::Ok);
  TimeCollector C;
  std::string Err;
  ASSERT_TRUE(profiler::replayBytes(R.Bytes, C, &Err)) << Err;
  EXPECT_GT(C.Allocs.size(), 500u);
  // The preallocated OutOfMemoryError instance is the one allocation
  // made before the stream starts, and the only one without a record.
  ByteTime Clock = P.classOf(P.OOMClass).InstanceAccountedBytes;
  std::set<ByteTime> Clocks = {0, Clock};
  std::sort(C.Allocs.begin(), C.Allocs.end());
  for (const auto &[Time, Bytes] : C.Allocs) {
    Clock += Bytes;
    ASSERT_EQ(Time, Clock) << "an allocation's time is the clock after it";
    Clocks.insert(Clock);
  }
  std::uint64_t Mismatches = 0;
  for (ByteTime T : C.Times)
    if (!Clocks.count(T) && Mismatches++ == 0)
      ADD_FAILURE() << "time " << T << " is no value of the heap clock";
  EXPECT_EQ(Mismatches, 0u);
}

/// The golden file holds exactly one row per case above: a stale row
/// (a case renamed or dropped) fails here rather than going unchecked.
TEST(HotPathDifferential, GoldenFileListsEveryCase) {
  std::set<std::string> Streams = {"finalizer-churn", "caught-oom",
                                   "generational-churn", "uncaught-throw"};
  for (const benchmarks::BenchmarkProgram &B : benchmarks::buildAll()) {
    Streams.insert(B.Name);
    Streams.insert(B.Name + "+sampled");
  }
  std::set<std::string> Expected = {"profile-log"};
  for (const std::string &S : Streams) {
    Expected.insert(S);
    Expected.insert(S + "+unsnapped");
  }
  std::set<std::string> Listed;
  for (const auto &[Label, Line] : goldenRows())
    Listed.insert(Label);
  EXPECT_EQ(Listed, Expected);
}

} // namespace
