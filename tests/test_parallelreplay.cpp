//===- tests/test_parallelreplay.cpp - Sharded replay tests ---------------===//
//
// Part of jdrag test suite.
//
// The parallel replay contract is a single sentence: for any readable
// recording, replayProfileParallelFold(Jobs) hands its sink exactly the
// records of the sequential replayProfile() result, and its shell
// equals that log minus the records (and the sharded streaming analysis
// gives the same report, lifetimes and curve as one job); for any
// damaged recording it fails with the same error instead of crashing.
// These tests walk that contract across the format matrix (v7 with and
// without its footer, and the legacy v2-v6 fixtures, which take the
// sequential path), across config variants (snapped vs exact use times,
// excluded classes), and across adversarial inputs (lying footers,
// truncation, salvaged prefixes).
//
//===----------------------------------------------------------------------===//

#include "analysis/ReportPrinter.h"
#include "analysis/StreamingAnalysis.h"
#include "benchmarks/Benchmarks.h"
#include "profiler/DragProfiler.h"
#include "profiler/EventStream.h"
#include "profiler/ParallelReplay.h"
#include "profiler/StreamSalvage.h"
#include "vm/VirtualMachine.h"

#include "ShardedReplay.h"
#include "VMTestUtils.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

using namespace jdrag;
using namespace jdrag::profiler;
using namespace jdrag::testutil;

namespace {

std::string tempPath(const char *Name) {
  // Pid-unique so parallel ctest processes cannot clobber each
  // other's files.
  return std::string("/tmp/jdrag_parreplay_") + std::to_string(getpid()) + "_" +
         Name;
}

std::vector<std::byte> readBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  std::vector<std::byte> Out;
  char C;
  while (In.get(C))
    Out.push_back(static_cast<std::byte>(C));
  return Out;
}

/// Size of the `.jdev` header at the start of \p File.
std::size_t headerBytes(const std::vector<std::byte> &File) {
  StreamHeaderInfo Hdr;
  EXPECT_TRUE(parseStreamHeader(File, Hdr));
  return streamHeaderBytes(Hdr.Format);
}

void writeBytes(const std::string &Path, std::span<const std::byte> Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(Out.good()) << Path;
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

/// Same churn workload as the event-stream tests: alternating used and
/// dragging objects plus array garbage, enough traffic for GC cycles
/// and a deep-GC interval. \p BoxOut receives the Box class id for the
/// excluded-classes variant.
ir::Program buildChurnProgram(ir::ClassId *BoxOut = nullptr) {
  using ir::ValueKind;
  TestProgramBuilder T;
  ir::ClassBuilder C = T.PB.beginClass("Box", T.PB.objectClass());
  ir::FieldId V = C.addField("v", ValueKind::Int);
  ir::MethodBuilder Ctor = C.beginMethod("<init>", {}, ValueKind::Void);
  Ctor.aload(0).invokespecial(T.PB.objectCtor()).ret();
  Ctor.finish();
  if (BoxOut)
    *BoxOut = C.id();

  ir::ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  ir::MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t N = M.newLocal(ValueKind::Int);
  std::uint32_t I = M.newLocal(ValueKind::Int);
  std::uint32_t O = M.newLocal(ValueKind::Ref);
  M.iconst(0).invokestatic(T.Read).istore(N);
  ir::Label Loop = M.newLabel(), Skip = M.newLabel(), Done = M.newLabel();
  M.iconst(0).istore(I);
  M.bind(Loop);
  M.iload(I).iload(N).ifICmpGe(Done);
  M.new_(C.id()).dup().invokespecial(Ctor.id()).astore(O);
  M.iload(I).iconst(1).iand_().ifEqZ(Skip);
  M.aload(O).iload(I).putfield(V);
  M.aload(O).getfield(V).pop();
  M.bind(Skip);
  M.iconst(9).newarray(ir::ArrayKind::Int).pop();
  M.iload(I).iconst(1).iadd().istore(I);
  M.goto_(Loop);
  M.bind(Done);
  M.iconst(0).invokestatic(T.Emit);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  return T.finishVerified();
}

/// Records \p P (\p Iters churn iterations) to \p Path with a forced
/// chunk size, so even the small test workload spans enough chunks to
/// shard meaningfully.
void recordRun(const ir::Program &P, const std::string &Path,
               std::size_t ChunkBytes, std::int64_t Iters = 300) {
  FileEventSink Sink;
  ASSERT_TRUE(Sink.open(Path));
  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.Sink = &Sink;
  Opts.EventChunkBytes = ChunkBytes;
  vm::VirtualMachine VM(P, Opts);
  VM.setInputs({Iters});
  std::string Err;
  ASSERT_EQ(VM.run(&Err), vm::Interpreter::Status::Ok) << Err;
  ASSERT_TRUE(VM.streamIntact());
}

/// Whether a recording's sharded replay splits it (a v7 stream of at
/// least two chunks) or hands it to the sequential path (legacy
/// formats).
enum class Expect { Sharded, Sequential };

/// The core assertion: sequential replay and sharded replay at several
/// worker counts all succeed with the same records and shell, the
/// sharded runs split the stream as \p Want says, and the streaming
/// analysis (sharded fold) gives the same report, lifetimes and curve
/// as with one job.
void expectParallelMatchesSequential(const std::string &Path,
                                     const ir::Program &P, Expect Want,
                                     ProfilerConfig Config = ProfilerConfig()) {
  ProfileLog Seq;
  std::string Err;
  ASSERT_TRUE(replayProfile(Path, P, Config, Seq, &Err)) << Err;
  for (unsigned Jobs : {2u, 4u, 64u}) {
    SCOPED_TRACE("replay jobs=" + std::to_string(Jobs));
    ProfileLog Par;
    unsigned Shards = 0;
    ASSERT_TRUE(replaySharded(Path, P, Config, Jobs, Par, &Err, &Shards))
        << Err;
    if (Want == Expect::Sharded)
      EXPECT_GE(Shards, 2u);
    else
      EXPECT_EQ(Shards, 1u);
    expectSameProfile(Seq, Par);
  }

  analysis::StreamAnalysisOptions O;
  O.Config = Config;
  O.WantLifetimes = true;
  O.CurveSamples = 64;
  analysis::StreamAnalysisResult One;
  ASSERT_TRUE(analysis::analyzeEventStream(Path, P, O, One, &Err)) << Err;
  std::string Report = analysis::renderDragReport(*One.Report);
  for (unsigned Jobs : {2u, 4u, 64u}) {
    SCOPED_TRACE("analysis jobs=" + std::to_string(Jobs));
    O.Jobs = Jobs;
    analysis::StreamAnalysisResult R;
    ASSERT_TRUE(analysis::analyzeEventStream(Path, P, O, R, &Err)) << Err;
    EXPECT_EQ(analysis::renderDragReport(*R.Report), Report);
    EXPECT_EQ(R.Lifetimes.Lag, One.Lifetimes.Lag);
    EXPECT_EQ(R.Lifetimes.Use, One.Lifetimes.Use);
    EXPECT_EQ(R.Lifetimes.Drag, One.Lifetimes.Drag);
    EXPECT_EQ(R.Lifetimes.Void, One.Lifetimes.Void);
    EXPECT_EQ(R.Curve.Times, One.Curve.Times);
    EXPECT_EQ(R.Curve.ReachableBytes, One.Curve.ReachableBytes);
    EXPECT_EQ(R.Curve.InUseBytes, One.Curve.InUseBytes);
    EXPECT_EQ(R.RecordsFolded, One.RecordsFolded);
  }
}

TEST(ParallelReplay, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(defaultReplayJobs(), 1u);
}

TEST(ParallelReplay, V4FooterParallelMatchesSequential) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v4.jdev");
  recordRun(P, Path, /*ChunkBytes=*/512);

  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_TRUE(Rep.clean()) << Rep.summary(Path);
  ASSERT_TRUE(Rep.FooterPresent);
  ASSERT_TRUE(Rep.FooterOk);
  ASSERT_GE(Rep.Chunks.size(), 4u) << "workload must span several chunks";

  expectParallelMatchesSequential(Path, P, Expect::Sharded);
  std::remove(Path.c_str());
}

// Committed fixtures (tests/data/README.md). The v3 recording is juru at
// 512-byte chunks: records straddle chunks and the time-delta chain runs
// across them, so the parallel entry point must hand it to the
// sequential path (LegacyStream) and still match.
TEST(ParallelReplay, V3NoFooterParallelMatchesSequential) {
  const std::string Path =
      std::string(JDRAG_TEST_DATA_DIR) + "/juru_v3_512.jdev";
  benchmarks::BenchmarkProgram B = benchmarks::buildJuru();

  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_TRUE(Rep.clean()) << Rep.summary(Path);
  EXPECT_EQ(Rep.Version, 3u);
  EXPECT_FALSE(Rep.FooterPresent);
  ASSERT_GE(Rep.Chunks.size(), 4u);

  expectParallelMatchesSequential(Path, B.Prog, Expect::Sequential);
}

// The committed v4, v5 (sampled), v6 (compressed) and v7 (delta-coded
// ids, compressed; exact and sampled) recordings of juru at 2 KiB chunks
// (tests/data/README.md): self-contained chunks and a footer, but a
// legacy format, so the sharded entry point hands them to the
// sequential path (LegacyStream).
TEST(ParallelReplay, CommittedV4V5V6FixturesMatchSequential) {
  benchmarks::BenchmarkProgram B = benchmarks::buildJuru();
  for (const char *File : {"juru_v4.jdev", "juru_v5.jdev", "juru_v6.jdev",
                           "juru_v7.jdev", "juru_v7_sampled.jdev"}) {
    SCOPED_TRACE(File);
    const std::string Path = std::string(JDRAG_TEST_DATA_DIR) + "/" + File;
    SalvageReport Rep = scanEventFile(Path, nullptr);
    ASSERT_TRUE(Rep.clean()) << Rep.summary(Path);
    ASSERT_TRUE(Rep.FooterOk);
    ASSERT_GE(Rep.Chunks.size(), 4u);
    expectParallelMatchesSequential(Path, B.Prog, Expect::Sequential);
  }
}

// juru_v2.jdev: four 64 KiB chunks of fixed 40-byte records, which
// straddle every chunk boundary; replayed sequentially like v3.
TEST(ParallelReplay, V2ParallelMatchesSequential) {
  const std::string Path = std::string(JDRAG_TEST_DATA_DIR) + "/juru_v2.jdev";
  benchmarks::BenchmarkProgram B = benchmarks::buildJuru();

  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_TRUE(Rep.clean()) << Rep.summary(Path);
  EXPECT_EQ(Rep.Version, 2u);
  ASSERT_GE(Rep.Chunks.size(), 4u);

  expectParallelMatchesSequential(Path, B.Prog, Expect::Sequential);
}

TEST(ParallelReplay, ParallelMatchesLiveAttachedProfile) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v4_live.jdev");
  recordRun(P, Path, /*ChunkBytes=*/512);

  DragProfiler Prof(P);
  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Prof.attachTo(Opts);
  vm::VirtualMachine VM(P, Opts);
  VM.setInputs({300});
  std::string Err;
  ASSERT_EQ(VM.run(&Err), vm::Interpreter::Status::Ok) << Err;
  ProfileLog Live = Prof.takeLog();

  ProfileLog Par;
  unsigned Shards = 0;
  ASSERT_TRUE(replaySharded(Path, P, ProfilerConfig(), 4, Par, &Err, &Shards))
      << Err;
  EXPECT_GE(Shards, 2u);
  expectSameProfile(Live, Par);
  std::remove(Path.c_str());
}

TEST(ParallelReplay, FooterStrippedV4StillShards) {
  // A v4 stream whose footer frame never made it to disk (crash before
  // finishStream) is NOT damaged -- readers rebuild the index. The
  // parallel result must not change.
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v4_nofoot.jdev");
  recordRun(P, Path, /*ChunkBytes=*/512);

  std::vector<std::byte> File = readBytes(Path);
  std::size_t HB = headerBytes(File);
  ASSERT_GT(File.size(), HB);
  std::span<const std::byte> Framed(File.data() + HB, File.size() - HB);
  std::size_t FB = footerBlockSize(Framed);
  ASSERT_GT(FB, 0u);
  writeBytes(Path, std::span<const std::byte>(File.data(), File.size() - FB));

  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_TRUE(Rep.clean()) << Rep.summary(Path);
  EXPECT_FALSE(Rep.FooterPresent);

  expectParallelMatchesSequential(Path, P, Expect::Sharded);
  std::remove(Path.c_str());
}

/// Rewrites \p Path's footer after letting \p Tamper rewrite the parsed
/// entries -- the result is a structurally valid, CRC-correct footer
/// whose *claims* about the chunks are lies.
void rewriteFooter(const std::string &Path,
                   const std::function<void(ChunkIndex &)> &Tamper) {
  std::vector<std::byte> File = readBytes(Path);
  std::size_t HB = headerBytes(File);
  ASSERT_GT(File.size(), HB);
  std::span<const std::byte> Framed(File.data() + HB, File.size() - HB);
  std::size_t FB = footerBlockSize(Framed);
  ASSERT_GT(FB, 0u);
  ChunkIndex Idx;
  ASSERT_TRUE(readChunkIndexFooter(Framed, Idx));
  Tamper(Idx);
  std::vector<std::byte> Footer =
      encodeChunkIndexFooter(Idx.Entries, Idx.TotalRecords);
  File.resize(File.size() - FB);
  File.insert(File.end(), Footer.begin(), Footer.end());
  writeBytes(Path, File);
}

TEST(ParallelReplay, LyingFooterRecordCountDegradesGracefully) {
  // The footer is a producer claim; a workers-disagree outcome must
  // trigger the rebuild-and-retry path and still match sequential.
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v4_liecount.jdev");
  recordRun(P, Path, /*ChunkBytes=*/512);
  rewriteFooter(Path, [](ChunkIndex &Idx) {
    ASSERT_GE(Idx.Entries.size(), 2u);
    Idx.Entries[0].RecordCount += 1;
    Idx.Entries[1].FirstTime += 12345;
  });

  // The lie is CRC-valid, so a scan still calls the footer ok...
  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_TRUE(Rep.FooterPresent);
  ASSERT_TRUE(Rep.FooterOk);

  // ...but replay re-verifies reality and must not be fooled.
  expectParallelMatchesSequential(Path, P, Expect::Sharded);
  std::remove(Path.c_str());
}

TEST(ParallelReplay, LyingFooterCrcDegradesGracefully) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v4_liecrc.jdev");
  recordRun(P, Path, /*ChunkBytes=*/512);
  rewriteFooter(Path, [](ChunkIndex &Idx) {
    ASSERT_GE(Idx.Entries.size(), 2u);
    Idx.Entries.back().Crc ^= 0xdeadbeef;
  });
  expectParallelMatchesSequential(Path, P, Expect::Sharded);
  std::remove(Path.c_str());
}

TEST(ParallelReplay, V5FlaggedLengthInFooterAndHeaderFailsLikeSequential) {
  // v5 has no compressed bit, so a chunk whose header and footer entry
  // both set bit 31 of the length is implausible to every reader. The
  // footer's tiling masks the bit and accepts the entry; the sharded
  // reader must still judge the frame as a v5 frame and not size its
  // payload from the raw field, which points 2 GiB past the file.
  benchmarks::BenchmarkProgram B = benchmarks::buildJuru();
  std::string Path = tempPath("v5_flagged.jdev");
  std::vector<std::byte> File =
      readBytes(std::string(JDRAG_TEST_DATA_DIR) + "/juru_v5.jdev");
  std::size_t HB = headerBytes(File);
  ChunkHeader H;
  std::memcpy(&H, File.data() + HB, sizeof(H));
  std::size_t At = HB + sizeof(H) + H.PayloadBytes; // chunk 1
  std::memcpy(&H, File.data() + At, sizeof(H));
  ASSERT_EQ(H.Seq, 1u);
  H.PayloadBytes |= ChunkCompressedBit;
  std::memcpy(File.data() + At, &H, sizeof(H));
  writeBytes(Path, File);
  rewriteFooter(Path, [](ChunkIndex &Idx) {
    ASSERT_GE(Idx.Entries.size(), 2u);
    Idx.Entries[1].PayloadBytes |= ChunkCompressedBit;
  });

  ProfileLog Seq, Par;
  std::string SeqErr, ParErr;
  EXPECT_FALSE(replayProfile(Path, B.Prog, ProfilerConfig(), Seq, &SeqErr));
  EXPECT_EQ(SeqErr, "corrupt event stream: chunk 1 has implausible payload "
                    "length " +
                        std::to_string(H.PayloadBytes));
  EXPECT_FALSE(replaySharded(Path, B.Prog, ProfilerConfig(), 2, Par, &ParErr));
  EXPECT_EQ(ParErr, SeqErr);
  std::remove(Path.c_str());
}

TEST(ParallelReplay, TruncatedRecordingFailsExactlyLikeSequential) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v4_trunc.jdev");
  recordRun(P, Path, /*ChunkBytes=*/512);

  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_GE(Rep.Chunks.size(), 4u);
  // Cut inside the third chunk: structurally damaged, not salvage-clean.
  std::vector<std::byte> File = readBytes(Path);
  std::size_t Cut = static_cast<std::size_t>(Rep.Chunks[2].Offset) + 5;
  ASSERT_LT(Cut, File.size());
  writeBytes(Path, std::span<const std::byte>(File.data(), Cut));

  ProfileLog Seq, Par;
  std::string SeqErr, ParErr;
  EXPECT_FALSE(replayProfile(Path, P, ProfilerConfig(), Seq, &SeqErr));
  EXPECT_FALSE(replaySharded(Path, P, ProfilerConfig(), 4, Par, &ParErr));
  EXPECT_FALSE(SeqErr.empty());
  EXPECT_EQ(SeqErr, ParErr) << "damaged files must get the canonical error";
  std::remove(Path.c_str());
}

TEST(ParallelReplay, SalvagedPrefixReplaysIdentically) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v4_corrupt.jdev");
  std::string Salvaged = tempPath("v4_salvaged.jdev");
  recordRun(P, Path, /*ChunkBytes=*/512, /*Iters=*/10000);

  // Damage the first chunk past twice the default chunk size of
  // payload, so the salvaged prefix spans several chunks.
  SalvageReport Rep = scanEventFile(Path, nullptr);
  std::size_t Victim = 0;
  std::uint64_t Payload = 0;
  while (Victim != Rep.Chunks.size() &&
         Payload <= 2 * EventBuffer::DefaultChunkBytes)
    Payload += Rep.Chunks[Victim++].PayloadBytes;
  ASSERT_LT(Victim, Rep.Chunks.size()) << "workload too small to damage";
  // Flip a payload byte there, then salvage the valid prefix.
  std::vector<std::byte> File = readBytes(Path);
  std::size_t Hit = static_cast<std::size_t>(Rep.Chunks[Victim].Offset) +
                    sizeof(ChunkHeader) + 3;
  ASSERT_LT(Hit, File.size());
  File[Hit] ^= std::byte{0x40};
  writeBytes(Path, File);

  SalvageReport SalvRep;
  std::string Err;
  ASSERT_TRUE(salvageEventFile(Path, Salvaged, &SalvRep, &Err)) << Err;
  EXPECT_EQ(SalvRep.FirstDamaged, Victim);
  EXPECT_GT(SalvRep.BytesRecovered, 2 * EventBuffer::DefaultChunkBytes);

  // Salvage re-chunks the recovered prefix at the default chunk size:
  // several chunks, which the sharded entry point splits.
  EXPECT_GE(scanEventFile(Salvaged, nullptr).Chunks.size(), 2u);
  expectParallelMatchesSequential(Salvaged, P, Expect::Sharded);
  std::remove(Path.c_str());
  std::remove(Salvaged.c_str());
}

TEST(ParallelReplay, ExactUseTimesAndExclusionsMatch) {
  // Config variants thread through the merge differently (no interval
  // snapping; class-excluded records skipped but still end-consumed).
  ir::ClassId Box;
  ir::Program P = buildChurnProgram(&Box);
  std::string Path = tempPath("v4_cfg.jdev");
  recordRun(P, Path, /*ChunkBytes=*/512);

  ProfilerConfig Exact;
  Exact.SnapUseTimes = false;
  expectParallelMatchesSequential(Path, P, Expect::Sharded, Exact);

  ProfilerConfig Excl;
  Excl.ExcludedClasses.push_back(Box);
  expectParallelMatchesSequential(Path, P, Expect::Sharded, Excl);
  std::remove(Path.c_str());
}

TEST(ParallelReplay, MoreJobsThanChunks) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v4_fewchunks.jdev");
  recordRun(P, Path, /*ChunkBytes=*/2048);
  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_GE(Rep.Chunks.size(), 2u);
  expectParallelMatchesSequential(Path, P, Expect::Sharded);
  std::remove(Path.c_str());
}

TEST(ParallelReplay, HeaderOnlyRecording) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("header_only.jdev");
  {
    FileEventSink Sink;
    ASSERT_TRUE(Sink.open(Path));
    ASSERT_TRUE(Sink.finish());
  }
  ProfileLog Seq, Par;
  std::string Err;
  ASSERT_TRUE(replayProfile(Path, P, ProfilerConfig(), Seq, &Err)) << Err;
  ASSERT_TRUE(replaySharded(Path, P, ProfilerConfig(), 4, Par, &Err)) << Err;
  EXPECT_TRUE(Par.Records.empty());
  expectSameProfile(Seq, Par);
  std::remove(Path.c_str());
}

} // namespace
