//===- tests/test_streamrobustness.cpp - Stream integrity tests -----------===//
//
// Part of jdrag test suite.
//
// The hostile half of the event-stream pipeline's contract:
//
//   CorruptionCorpus  every truncation point and bit flip over a framed
//                     stream is detected (no crash, no over-read -- run
//                     these under the sanitize preset);
//   FrameErrors       each chunk-frame fault gets its exact error text
//                     (or salvage verdict) from every reader that can
//                     see it, sharded replay giving the sequential text;
//   FaultInjection    a failing sink degrades gracefully: the VM run
//                     still succeeds, drops are accounted exactly, and
//                     transient errors are retried to success;
//   Salvage           fsck/salvage recover the longest valid event
//                     prefix of damaged recordings, and replaying the
//                     salvaged file reproduces the profile of the
//                     pre-damage prefix bit for bit;
//   HostileIds        a CRC-valid stream whose object ids sit at 2^40
//                     or 2^62 replays, sequentially and sharded, in
//                     trailer state sized by its two live objects.
//   HostileClock      a CRC-valid stream whose byte clock steps backwards
//                     across a shard boundary replays sharded exactly
//                     as it does sequentially.
//   TypedDecode       the record loop instantiated for DragProfiler and
//                     the virtual EventConsumer loop agree on every
//                     workload, fixture and damaged stream.
//
//===----------------------------------------------------------------------===//

#include "analysis/DragReport.h"
#include "analysis/ReportPrinter.h"
#include "analysis/StreamingAnalysis.h"
#include "benchmarks/Benchmarks.h"
#include "profiler/AsyncEventSink.h"
#include "profiler/DragProfiler.h"
#include "profiler/EventStream.h"
#include "profiler/ParallelReplay.h"
#include "profiler/StreamSalvage.h"
#include "support/Crc32c.h"
#include "vm/VirtualMachine.h"

#include "HostileStream.h"
#include "ShardedReplay.h"
#include "VMTestUtils.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

using namespace jdrag;
using namespace jdrag::profiler;
using namespace jdrag::testutil;

namespace {

std::string tempPath(const char *Name) {
  // Pid-unique so parallel ctest processes cannot clobber each
  // other's files.
  return std::string("/tmp/jdrag_robust_") + std::to_string(getpid()) + "_" +
         Name;
}

std::vector<std::byte> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  std::vector<char> Chars((std::istreambuf_iterator<char>(In)),
                          std::istreambuf_iterator<char>());
  std::vector<std::byte> Out(Chars.size());
  std::memcpy(Out.data(), Chars.data(), Chars.size());
  return Out;
}

void writeFileBytes(const std::string &Path,
                    const std::vector<std::byte> &Bytes) {
  std::ofstream Out(Path, std::ios::binary);
  ASSERT_TRUE(Out.good()) << Path;
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

/// Counts decoded items without holding them.
class CountingConsumer : public EventConsumer {
public:
  std::uint64_t Sites = 0, Events = 0;
  void onSite(SiteId, std::span<const SiteFrame>) override { ++Sites; }
  void onEvent(const EventRecord &) override { ++Events; }
};

/// Records the decoded stream in order so a prefix of it can be
/// replayed into another consumer (the salvage acceptance oracle).
class OrderedCollector : public EventConsumer {
public:
  struct Item {
    bool IsSite = false;
    SiteId Id = InvalidSite;
    std::vector<SiteFrame> Frames;
    EventRecord E;
  };
  std::vector<Item> Items;

  void onSite(SiteId Id, std::span<const SiteFrame> Frames) override {
    Item I;
    I.IsSite = true;
    I.Id = Id;
    I.Frames.assign(Frames.begin(), Frames.end());
    Items.push_back(std::move(I));
  }
  void onEvent(const EventRecord &E) override {
    Item I;
    I.E = E;
    Items.push_back(std::move(I));
  }

  /// Replays the first \p N items into \p C.
  void replayPrefix(std::size_t N, EventConsumer &C) const {
    for (std::size_t I = 0; I != N && I != Items.size(); ++I) {
      if (Items[I].IsSite)
        C.onSite(Items[I].Id, Items[I].Frames);
      else
        C.onEvent(Items[I].E);
    }
  }
};

/// The alloc-and-use churn workload shared with test_eventstream:
/// deterministic, crosses chunk boundaries, produces GC traffic.
ir::Program buildChurnProgram() {
  using ir::ValueKind;
  TestProgramBuilder T;
  ir::ClassBuilder C = T.PB.beginClass("Box", T.PB.objectClass());
  ir::FieldId V = C.addField("v", ValueKind::Int);
  ir::MethodBuilder Ctor = C.beginMethod("<init>", {}, ValueKind::Void);
  Ctor.aload(0).invokespecial(T.PB.objectCtor()).ret();
  Ctor.finish();

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

/// Builds a small many-chunk framed stream in memory (no file header).
std::vector<std::byte> buildFramedStream(std::size_t ChunkBytes = 64,
                                         std::uint32_t Events = 30) {
  MemorySink Mem;
  EventBuffer Buf(Mem, ChunkBytes);
  std::vector<SiteFrame> Frames = {{ir::MethodId(3), 7, 42},
                                   {ir::MethodId(1), 2, 11}};
  Buf.writeSite(SiteId(0), Frames);
  for (std::uint32_t I = 0; I != Events; ++I) {
    EventRecord E;
    E.Time = 100 + I;
    E.Id = I;
    E.Site = 0;
    E.Kind = static_cast<std::uint8_t>(
        I % 3 ? EventKind::GCEnd : EventKind::Collect);
    Buf.writeEvent(E);
  }
  EXPECT_TRUE(Buf.flush());
  return {Mem.bytes().begin(), Mem.bytes().end()};
}

/// tests/data/corpus_v2.frames: a v2 framed stream (no file header) of
/// one two-frame site and 30 alloc/collect records in 64-byte chunks,
/// so the 40-byte records straddle chunk boundaries.
std::vector<std::byte> v2Corpus() {
  return readFileBytes(std::string(JDRAG_TEST_DATA_DIR) + "/corpus_v2.frames");
}

/// Runs the churn program into \p Sink with small event chunks so
/// recordings span many frames. Returns the VM's stream health.
StreamHealth runChurnInto(const ir::Program &P, EventSink &Sink,
                          std::int64_t Work = 300) {
  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.Sink = &Sink;
  Opts.EventChunkBytes = 512;
  vm::VirtualMachine VM(P, Opts);
  VM.setInputs({Work});
  std::string Err;
  EXPECT_EQ(VM.run(&Err), vm::Interpreter::Status::Ok) << Err;
  return VM.streamHealth();
}

/// Serialized-bytes equality -- the strongest log comparison available.
void expectBitIdentical(const ProfileLog &A, const ProfileLog &B) {
  std::string PathA = tempPath("cmp_a.bin"), PathB = tempPath("cmp_b.bin");
  ASSERT_TRUE(A.writeFile(PathA));
  ASSERT_TRUE(B.writeFile(PathB));
  EXPECT_EQ(readFileBytes(PathA), readFileBytes(PathB));
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

//===----------------------------------------------------------------------===//
// CorruptionCorpus: exhaustive truncation + bit-flip sweeps
//===----------------------------------------------------------------------===//

TEST(CorruptionCorpus, TruncationAtEveryByteNeverCrashesOrOverreads) {
  std::vector<std::byte> Stream = buildFramedStream();
  CountingConsumer Full;
  ASSERT_TRUE(replayBytes(Stream, Full));
  ASSERT_GT(Full.Events, 0u);

  // Every proper prefix either fails cleanly or decodes a (possibly
  // empty) prefix of the events -- never more, never UB. Prefixes that
  // happen to end exactly on a chunk-and-record boundary are valid
  // shorter streams; all others must be reported truncated.
  for (std::size_t Cut = 0; Cut != Stream.size(); ++Cut) {
    CountingConsumer C;
    std::string Err;
    std::span<const std::byte> Prefix(Stream.data(), Cut);
    if (replayBytes(Prefix, C, &Err)) {
      EXPECT_LE(C.Events + C.Sites, Full.Events + Full.Sites) << Cut;
    } else {
      EXPECT_FALSE(Err.empty()) << Cut;
    }
  }
}

TEST(CorruptionCorpus, EveryBitFlipIsDetected) {
  std::vector<std::byte> Stream = buildFramedStream();
  for (std::size_t I = 0; I != Stream.size(); ++I) {
    for (unsigned Bit : {0u, 7u}) {
      std::vector<std::byte> Mut = Stream;
      Mut[I] ^= std::byte(1u << Bit);
      CountingConsumer C;
      std::string Err;
      EXPECT_FALSE(replayBytes(Mut, C, &Err))
          << "single-bit flip at byte " << I << " bit " << Bit
          << " went undetected";
    }
  }
}

// The sweeps above exercise the default format; the legacy v2 encoding
// keeps the same guarantees for as long as v2 recordings replay.
TEST(CorruptionCorpus, V2TruncationAtEveryByteNeverCrashesOrOverreads) {
  std::vector<std::byte> Stream = v2Corpus();
  CountingConsumer Full;
  ASSERT_TRUE(replayBytes(Stream, Full, nullptr, WireFormat::V2));
  // The corpus collects only objects it never allocates, so its site is
  // all that reaches a consumer.
  ASSERT_GT(Full.Sites, 0u);
  for (std::size_t Cut = 0; Cut != Stream.size(); ++Cut) {
    CountingConsumer C;
    std::string Err;
    std::span<const std::byte> Prefix(Stream.data(), Cut);
    if (replayBytes(Prefix, C, &Err, WireFormat::V2)) {
      EXPECT_LE(C.Events + C.Sites, Full.Events + Full.Sites) << Cut;
    } else {
      EXPECT_FALSE(Err.empty()) << Cut;
    }
  }
}

TEST(CorruptionCorpus, V2EveryBitFlipIsDetected) {
  std::vector<std::byte> Stream = v2Corpus();
  for (std::size_t I = 0; I != Stream.size(); ++I) {
    for (unsigned Bit : {0u, 7u}) {
      std::vector<std::byte> Mut = Stream;
      Mut[I] ^= std::byte(1u << Bit);
      CountingConsumer C;
      std::string Err;
      EXPECT_FALSE(replayBytes(Mut, C, &Err, WireFormat::V2))
          << "single-bit flip at byte " << I << " bit " << Bit
          << " went undetected";
    }
  }
}

TEST(CorruptionCorpus, OversizedFrameCountInValidChunkRejected) {
  // A chunk that passes every frame check (magic, sequence, length,
  // CRC) but whose payload lies about its DefineSite frame count must
  // still be rejected by the record layer -- without over-reading.
  EventRecord E;
  E.Kind = static_cast<std::uint8_t>(EventKind::DefineSite);
  E.Site = 0;
  E.Arg0 = MaxWireFrames + 1;

  std::vector<std::byte> Stream(sizeof(ChunkHeader) + sizeof(E));
  ChunkHeader H;
  H.Magic = ChunkMagic;
  H.Seq = 0;
  H.PayloadBytes = sizeof(E);
  H.Crc = support::crc32c(&E, sizeof(E));
  std::memcpy(Stream.data(), &H, sizeof(H));
  std::memcpy(Stream.data() + sizeof(H), &E, sizeof(E));

  CountingConsumer C;
  std::string Err;
  EXPECT_FALSE(replayBytes(Stream, C, &Err, WireFormat::V2));
  EXPECT_NE(Err.find("frames"), std::string::npos) << Err;
  EXPECT_EQ(C.Sites, 0u);
}

TEST(CorruptionCorpus, ImplausiblePayloadLengthRejected) {
  ChunkHeader H;
  H.Magic = ChunkMagic;
  H.Seq = 0;
  H.PayloadBytes = MaxChunkPayload + 1;
  H.Crc = 0;
  std::vector<std::byte> Stream(sizeof(H));
  std::memcpy(Stream.data(), &H, sizeof(H));
  CountingConsumer C;
  std::string Err;
  EXPECT_FALSE(replayBytes(Stream, C, &Err));
  EXPECT_NE(Err.find("implausible"), std::string::npos) << Err;
}

TEST(CorruptionCorpus, UncrcedStreamIsRejectedByDecoders) {
  // Checksum=false is a bench-only switch: decoders must refuse the
  // resulting zero-CRC frames rather than quietly skipping validation.
  MemorySink Mem;
  EventBuffer Buf(Mem, EventBuffer::DefaultChunkBytes, /*Checksum=*/false);
  EventRecord E;
  E.Kind = static_cast<std::uint8_t>(EventKind::Terminate);
  Buf.writeEvent(E);
  ASSERT_TRUE(Buf.flush());
  CountingConsumer C;
  std::string Err;
  EXPECT_FALSE(replayBytes(Mem.bytes(), C, &Err));
  EXPECT_NE(Err.find("CRC"), std::string::npos) << Err;
}

TEST(CorruptionCorpus, RecordCutAtTheEndOfAValidChunkIsRejectedByEveryReader) {
  // Every frame check passes; only the record layer sees that the
  // middle chunk's last record is cut off. Each reader must refuse it
  // the same way, and salvage keeps exactly the complete records.
  MemorySink Mem;
  writeCutRecordChunks(Mem);
  std::span<const std::byte> Framed = Mem.bytes();

  CountingConsumer C;
  std::string Err;
  EXPECT_FALSE(replayBytes(Framed, C, &Err));
  EXPECT_NE(Err.find("straddles"), std::string::npos) << Err;

  ChunkIndex Idx;
  EXPECT_FALSE(rebuildChunkIndex(Framed, Idx));

  std::string Path = tempPath("cut_record.jdev");
  {
    FileEventSink Sink;
    ASSERT_TRUE(Sink.open(Path));
    writeCutRecordChunks(Sink);
    ASSERT_TRUE(Sink.finish());
  }
  ir::Program P = buildChurnProgram();
  ProfileLog Seq, Par;
  std::string SeqErr, ParErr;
  EXPECT_FALSE(replayProfile(Path, P, ProfilerConfig(), Seq, &SeqErr));
  EXPECT_NE(SeqErr.find("straddles"), std::string::npos) << SeqErr;
  EXPECT_FALSE(replaySharded(Path, P, ProfilerConfig(), 4, Par, &ParErr));
  EXPECT_EQ(ParErr, SeqErr);

  OrderedCollector Prefix;
  SalvageReport Rep = scanEventFile(Path, &Prefix);
  ASSERT_TRUE(Rep.readable()) << Rep.FileError;
  ASSERT_EQ(Rep.Chunks.size(), 3u);
  EXPECT_EQ(Rep.FirstDamaged, 1u);
  EXPECT_TRUE(Rep.Chunks[0].ok());
  EXPECT_EQ(Rep.Chunks[1].Status, ChunkStatus::BadRecords);
  EXPECT_TRUE(Rep.Chunks[2].ok());
  // Chunk 0's two records and chunk 1's GC sample; the cut DeepGCEnd
  // and everything after the damage are dropped.
  EXPECT_EQ(Rep.EventsRecovered, 3u);
  ASSERT_EQ(Prefix.Items.size(), 3u);
  EXPECT_EQ(Prefix.Items[2].E.kind(), EventKind::GCEnd);
  // The recovered bytes end where the cut record begins: its tag
  // (1 byte) is the partial tail.
  EXPECT_TRUE(Rep.TailPartialRecord);
  EXPECT_EQ(Rep.BytesRecovered,
            Rep.Chunks[0].PayloadBytes + Rep.Chunks[1].PayloadBytes - 1u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// FrameErrors: each reader's verdict on each chunk-frame fault
//===----------------------------------------------------------------------===//

namespace {

const char *const TruncatedBytes =
    "truncated event stream: partial trailing chunk or record";

/// Header offsets of the frames in \p Framed (data chunks, then any
/// footer), walked without checking anything.
std::vector<std::size_t> frameOffsets(std::span<const std::byte> Framed) {
  std::vector<std::size_t> Out;
  std::size_t Off = 0;
  while (Framed.size() - Off >= sizeof(ChunkHeader)) {
    ChunkHeader H;
    std::memcpy(&H, Framed.data() + Off, sizeof(H));
    Out.push_back(Off);
    Off += sizeof(H) + (H.PayloadBytes & ~ChunkCompressedBit) +
           (H.Magic == FooterMagic ? 8 : 0);
  }
  return Out;
}

ChunkHeader headerOf(std::span<const std::byte> Framed, std::size_t K) {
  ChunkHeader H;
  std::memcpy(&H, Framed.data() + frameOffsets(Framed)[K], sizeof(H));
  return H;
}

/// \p Framed with frame \p K's header passed through \p Edit.
template <typename EditFn>
std::vector<std::byte> editHeader(std::vector<std::byte> Framed,
                                  std::size_t K, EditFn Edit) {
  std::size_t At = frameOffsets(Framed)[K];
  ChunkHeader H;
  std::memcpy(&H, Framed.data() + At, sizeof(H));
  Edit(H);
  std::memcpy(Framed.data() + At, &H, sizeof(H));
  return Framed;
}

/// A compressed v8 recording of 64 object records in 80-byte chunks
/// (eight LZ-compressed data chunks, then the footer).
/// Returns the frames and sets \p FileHeader to the `.jdev` header.
std::vector<std::byte> frameErrorsStream(std::vector<std::byte> &FileHeader) {
  std::string Path = tempPath("frame_errors_src.jdev");
  {
    FileEventSink Sink;
    FileEventSink::Options O;
    O.Compress = true;
    EXPECT_TRUE(Sink.open(Path, O));
    EventBuffer Buf(Sink, 80);
    for (std::uint64_t I = 1; I <= 64; ++I)
      Buf.writeEvent(objectRecord(EventKind::Collect, 1024 + I, I, 16 * I));
    Buf.writeEvent(timedRecord(EventKind::Terminate, 2048));
    EXPECT_TRUE(Buf.finishStream());
    EXPECT_TRUE(Sink.finish());
  }
  std::vector<std::byte> Bytes = readFileBytes(Path);
  std::remove(Path.c_str());
  std::size_t HeaderBytes = streamHeaderBytes(DefaultWireFormat);
  FileHeader.assign(Bytes.begin(), Bytes.begin() + HeaderBytes);
  std::vector<std::byte> Framed(Bytes.begin() + HeaderBytes, Bytes.end());
  std::vector<std::size_t> Frames = frameOffsets(Framed);
  EXPECT_EQ(Frames.size(), 9u);
  EXPECT_TRUE(chunkCompressed(headerOf(Framed, 1).PayloadBytes));
  EXPECT_EQ(headerOf(Framed, Frames.size() - 1).Magic, FooterMagic);
  return Framed;
}

/// What each reader says about one damaged v8 stream.
struct V8Verdicts {
  /// replayBytes' error; replayProfile's, sequential and at two jobs,
  /// except that a file's truncation text names the file.
  std::string Replay;
  /// rebuildChunkIndex's error; empty when it rebuilds the index.
  std::string Rebuild;
  /// scanEventFile's first damaged chunk and its verdict.
  std::size_t Damaged = SalvageReport::npos;
  ChunkStatus Status = ChunkStatus::Ok;
  bool FooterPresent = true;
  bool FooterOk = true;
};

void expectV8Verdicts(std::span<const std::byte> Framed,
                      const std::vector<std::byte> &FileHeader,
                      const V8Verdicts &Want) {
  CountingConsumer C;
  std::string Err;
  EXPECT_FALSE(replayBytes(Framed, C, &Err));
  EXPECT_EQ(Err, Want.Replay);

  ChunkIndex Idx;
  std::string RebuildErr;
  EXPECT_EQ(rebuildChunkIndex(Framed, Idx, &RebuildErr),
            Want.Rebuild.empty());
  EXPECT_EQ(RebuildErr, Want.Rebuild);

  std::string Path = tempPath("frame_errors.jdev");
  std::vector<std::byte> File = FileHeader;
  File.insert(File.end(), Framed.begin(), Framed.end());
  writeFileBytes(Path, File);

  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_TRUE(Rep.readable()) << Rep.FileError;
  EXPECT_EQ(Rep.FirstDamaged, Want.Damaged);
  if (Want.Damaged != SalvageReport::npos &&
      Rep.FirstDamaged == Want.Damaged) {
    EXPECT_STREQ(chunkStatusName(Rep.Chunks[Want.Damaged].Status),
                 chunkStatusName(Want.Status));
  }
  EXPECT_EQ(Rep.FooterPresent, Want.FooterPresent);
  EXPECT_EQ(Rep.FooterOk, Want.FooterOk);

  std::string FileWant =
      Want.Replay == TruncatedBytes
          ? Path + ": truncated event stream (partial trailing chunk or "
                   "record); try `jdrag salvage`"
          : Want.Replay;
  ir::Program P = buildChurnProgram();
  ProfileLog Seq, Par;
  std::string SeqErr, ParErr;
  EXPECT_FALSE(replayProfile(Path, P, ProfilerConfig(), Seq, &SeqErr));
  EXPECT_EQ(SeqErr, FileWant);
  EXPECT_FALSE(replaySharded(Path, P, ProfilerConfig(), 2, Par, &ParErr));
  EXPECT_EQ(ParErr, FileWant);
  std::remove(Path.c_str());
}

/// replayBytes on a damaged v2 stream: \p Want, and nothing delivered.
void expectV2Replay(std::span<const std::byte> Framed,
                    const std::string &Want) {
  CountingConsumer C;
  std::string Err;
  EXPECT_FALSE(replayBytes(Framed, C, &Err, WireFormat::V2));
  EXPECT_EQ(Err, Want);
  EXPECT_EQ(C.Sites + C.Events, 0u);
}

} // namespace

TEST(FrameErrors, BadMagic) {
  std::vector<std::byte> Hdr;
  auto Bad = [](ChunkHeader &H) { H.Magic = 0x21646142; };
  expectV8Verdicts(editHeader(frameErrorsStream(Hdr), 1, Bad), Hdr,
                   {"corrupt event stream: bad chunk magic at chunk 1",
                    "bad chunk magic at chunk 1", 1, ChunkStatus::BadMagic});
  expectV2Replay(editHeader(v2Corpus(), 1, Bad),
                 "corrupt event stream: bad chunk magic at chunk 1");
}

TEST(FrameErrors, ZeroLength) {
  std::vector<std::byte> Hdr;
  auto Zero = [](ChunkHeader &H) { H.PayloadBytes = 0; };
  expectV8Verdicts(
      editHeader(frameErrorsStream(Hdr), 1, Zero), Hdr,
      {"corrupt event stream: chunk 1 has implausible payload length 0",
       "chunk 1 has implausible payload length 0", 1,
       ChunkStatus::OversizedPayload});
  expectV2Replay(
      editHeader(v2Corpus(), 1, Zero),
      "corrupt event stream: chunk 1 has implausible payload length 0");
}

TEST(FrameErrors, LengthOverMaxChunkPayload) {
  std::vector<std::byte> Hdr;
  auto Huge = [](ChunkHeader &H) { H.PayloadBytes = MaxChunkPayload + 1; };
  expectV8Verdicts(editHeader(frameErrorsStream(Hdr), 1, Huge), Hdr,
                   {"corrupt event stream: chunk 1 has implausible payload "
                    "length 67108865",
                    "chunk 1 has implausible payload length 67108865", 1,
                    ChunkStatus::OversizedPayload});
  expectV2Replay(editHeader(v2Corpus(), 1, Huge),
                 "corrupt event stream: chunk 1 has implausible payload "
                 "length 67108865");
}

TEST(FrameErrors, SequenceJump) {
  std::vector<std::byte> Hdr;
  auto Jump = [](ChunkHeader &H) { H.Seq = 5; };
  expectV8Verdicts(editHeader(frameErrorsStream(Hdr), 1, Jump), Hdr,
                   {"corrupt event stream: chunk sequence jumped from 1 to 5 "
                    "(dropped or reordered chunks)",
                    "chunk sequence jumped from 1 to 5", 1,
                    ChunkStatus::BadSequence});
  expectV2Replay(editHeader(v2Corpus(), 1, Jump),
                 "corrupt event stream: chunk sequence jumped from 1 to 5 "
                 "(dropped or reordered chunks)");
}

TEST(FrameErrors, HeaderCutOff) {
  std::vector<std::byte> Hdr;
  std::vector<std::byte> S = frameErrorsStream(Hdr);
  std::size_t At = frameOffsets(S)[1];
  S.resize(At + 10);
  expectV8Verdicts(S, Hdr,
                   {TruncatedBytes,
                    "truncated chunk header at offset " + std::to_string(At),
                    1, ChunkStatus::TruncatedHeader, false, false});
  std::vector<std::byte> V2 = v2Corpus();
  V2.resize(frameOffsets(V2)[1] + 10);
  expectV2Replay(V2, TruncatedBytes);
}

TEST(FrameErrors, PayloadCutOff) {
  std::vector<std::byte> Hdr;
  std::vector<std::byte> S = frameErrorsStream(Hdr);
  S.resize(frameOffsets(S)[1] + sizeof(ChunkHeader) + 3);
  expectV8Verdicts(S, Hdr,
                   {TruncatedBytes, "truncated chunk payload in chunk 1", 1,
                    ChunkStatus::TruncatedPayload, false, false});
  std::vector<std::byte> V2 = v2Corpus();
  V2.resize(frameOffsets(V2)[1] + sizeof(ChunkHeader) + 3);
  expectV2Replay(V2, TruncatedBytes);
}

TEST(FrameErrors, MalformedCompressedPayload) {
  // Past its one-byte length prefix, the block is all zeros: its first
  // token is a match at offset 0, which no decoder accepts. The header
  // and its CRC are untouched.
  std::vector<std::byte> Hdr;
  std::vector<std::byte> S = frameErrorsStream(Hdr);
  std::size_t At = frameOffsets(S)[1];
  ChunkHeader H = headerOf(S, 1);
  ASSERT_LT(std::to_integer<unsigned>(S[At + sizeof(H)]), 0x80u);
  std::fill(S.begin() + At + sizeof(H) + 1,
            S.begin() + At + sizeof(H) + chunkWireBytes(H.PayloadBytes),
            std::byte{0});
  expectV8Verdicts(S, Hdr,
                   {"corrupt event stream: chunk 1 has a malformed "
                    "compressed payload",
                    "corrupt compressed payload in chunk 1", 1,
                    ChunkStatus::BadCompression});
  // v2 has no compressed bit: the flagged field fails the length bound.
  expectV2Replay(editHeader(v2Corpus(), 1,
                            [](ChunkHeader &H) {
                              H.PayloadBytes |= ChunkCompressedBit;
                            }),
                 "corrupt event stream: chunk 1 has implausible payload "
                 "length 2147483712");
}

TEST(FrameErrors, CrcMismatch) {
  std::vector<std::byte> Hdr;
  auto Flip = [](ChunkHeader &H) { H.Crc ^= 1; };
  std::vector<std::byte> S = frameErrorsStream(Hdr);
  std::uint32_t Crc = headerOf(S, 1).Crc;
  // The index rebuild checks structure only: the CRC is the decoders'.
  expectV8Verdicts(editHeader(S, 1, Flip), Hdr,
                   {"corrupt event stream: chunk 1 CRC mismatch (stored " +
                        std::to_string(Crc ^ 1) + ", computed " +
                        std::to_string(Crc) + ")",
                    "", 1, ChunkStatus::BadCrc});
  std::vector<std::byte> V2 = v2Corpus();
  std::uint32_t V2Crc = headerOf(V2, 1).Crc;
  expectV2Replay(editHeader(V2, 1, Flip),
                 "corrupt event stream: chunk 1 CRC mismatch (stored " +
                     std::to_string(V2Crc ^ 1) + ", computed " +
                     std::to_string(V2Crc) + ")");
}

TEST(FrameErrors, FooterCrcDamage) {
  // The footer's record total, which its CRC covers. The index rebuild
  // judges the terminal footer by the footer rule too.
  std::vector<std::byte> Hdr;
  std::vector<std::byte> S = frameErrorsStream(Hdr);
  S[frameOffsets(S).back() + sizeof(ChunkHeader)] ^= std::byte{1};
  expectV8Verdicts(S, Hdr,
                   {"corrupt event stream: damaged chunk index footer",
                    "damaged chunk index footer", SalvageReport::npos,
                    ChunkStatus::Ok, true, false});
}

TEST(FrameErrors, FooterTailDamage) {
  // The last byte of the tail magic. No footer block is found at the
  // tail, so the scan meets the footer frame as a chunk: bad magic.
  std::vector<std::byte> Hdr;
  std::vector<std::byte> S = frameErrorsStream(Hdr);
  S.back() ^= std::byte{1};
  expectV8Verdicts(S, Hdr,
                   {"corrupt event stream: damaged chunk index footer",
                    "damaged chunk index footer", frameOffsets(S).size() - 1,
                    ChunkStatus::BadMagic, false, false});
}

TEST(FrameErrors, FooterShape) {
  // One byte appended to the footer payload, with the CRC and the tail
  // size fixed up: every check but the footer shape passes.
  std::vector<std::byte> Hdr;
  std::vector<std::byte> S = frameErrorsStream(Hdr);
  std::size_t At = frameOffsets(S).back();
  ChunkHeader H = headerOf(S, frameOffsets(S).size() - 1);
  std::size_t PayloadEnd = At + sizeof(H) + H.PayloadBytes;
  S.insert(S.begin() + static_cast<std::ptrdiff_t>(PayloadEnd), std::byte{0});
  ++H.PayloadBytes;
  H.Crc = support::crc32c(S.data() + At + sizeof(H), H.PayloadBytes);
  std::memcpy(S.data() + At, &H, sizeof(H));
  std::uint32_t Block = static_cast<std::uint32_t>(S.size() - At);
  std::memcpy(S.data() + S.size() - 8, &Block, 4);
  expectV8Verdicts(S, Hdr,
                   {"corrupt event stream: damaged chunk index footer",
                    "damaged chunk index footer", SalvageReport::npos,
                    ChunkStatus::Ok, true, false});
}

TEST(FrameErrors, DataAfterTheFooter) {
  std::vector<std::byte> Hdr;
  std::vector<std::byte> S = frameErrorsStream(Hdr);
  std::vector<std::size_t> Frames = frameOffsets(S);
  S.insert(S.end(), S.begin(), S.begin() + Frames[1]);
  expectV8Verdicts(S, Hdr,
                   {"corrupt event stream: data after the chunk index footer",
                    "malformed chunk index footer", Frames.size() - 1,
                    ChunkStatus::BadMagic, false, false});
}

namespace {

/// A compressed v8 recording whose chunk 1 starts with the hostile
/// object record \p Bad, CRC-valid like every other chunk: chunk 0 holds
/// three well-formed records, chunk 1 the hostile one, three more and
/// the Terminate, then the footer. Returns the frames and sets
/// \p FileHeader to the `.jdev` header.
std::vector<std::byte> hostileRecordStream(std::vector<std::byte> &FileHeader,
                                           const EventRecord &Bad) {
  std::string Path = tempPath("hostile_record_src.jdev");
  {
    FileEventSink Sink;
    FileEventSink::Options O;
    O.Compress = true;
    EXPECT_TRUE(Sink.open(Path, O));
    EventBuffer Buf(Sink);
    for (std::uint64_t I = 1; I <= 3; ++I)
      Buf.writeEvent(objectRecord(EventKind::Collect, 1000, I, 16 * I));
    Buf.flush();
    Buf.writeEvent(Bad);
    for (std::uint64_t I = 4; I <= 6; ++I)
      Buf.writeEvent(objectRecord(EventKind::Collect, 1000, I, 16 * I, 1,
                                  20 * I));
    Buf.writeEvent(timedRecord(EventKind::Terminate, 2048));
    EXPECT_TRUE(Buf.finishStream());
    EXPECT_TRUE(Sink.finish());
  }
  std::vector<std::byte> Bytes = readFileBytes(Path);
  std::remove(Path.c_str());
  std::size_t HeaderBytes = streamHeaderBytes(DefaultWireFormat);
  FileHeader.assign(Bytes.begin(), Bytes.begin() + HeaderBytes);
  std::vector<std::byte> Framed(Bytes.begin() + HeaderBytes, Bytes.end());
  EXPECT_EQ(frameOffsets(Framed).size(), 3u);
  return Framed;
}

/// Every reader's verdict on the hostile record \p Bad in chunk 1: the
/// record layer's error \p Want.
void expectHostileRecord(const EventRecord &Bad, const std::string &Want) {
  std::vector<std::byte> Hdr;
  std::vector<std::byte> S = hostileRecordStream(Hdr, Bad);
  expectV8Verdicts(S, Hdr,
                   {Want, "malformed record in chunk 1", 1,
                    ChunkStatus::BadRecords, true, true});
}

} // namespace

// A v8 trailer a VM cannot write: every reader refuses it at the record,
// with its own text, and salvage keeps chunk 0.
TEST(FrameErrors, TrailerUseBeforeAlloc) {
  expectHostileRecord(
      objectRecord(EventKind::Collect, 1000, 9, 500, 1, 400),
      "malformed event stream: use time before the alloc time in collect "
      "record");
}

TEST(FrameErrors, TrailerBoundaryAfterUse) {
  EventRecord Bad = objectRecord(EventKind::Survivor, 1000, 9, 500, 1, 600);
  Bad.FirstUseBoundary = Bad.LastUseBoundary = 700;
  expectHostileRecord(Bad, "malformed event stream: deep-GC boundary after "
                           "its use in survivor record");
}

TEST(FrameErrors, TrailerUnusedWithLastUseSite) {
  EventRecord Bad = objectRecord(EventKind::Collect, 1000, 9, 500);
  Bad.LastUseSite = 0;
  expectHostileRecord(Bad, "malformed event stream: last use on an unused "
                           "object in collect record");
}

TEST(FrameErrors, TrailerArrayKindOutOfRange) {
  EventRecord Bad = objectRecord(EventKind::Collect, 1000, 9, 500);
  Bad.Flags = RecordIsArray;
  Bad.Sub = 5;
  expectHostileRecord(Bad, "malformed event stream: array kind out of range "
                           "in collect record");
}

TEST(FrameErrors, TrailerAllocAfterItsRecord) {
  expectHostileRecord(
      objectRecord(EventKind::Collect, 1000, 9, 1500),
      "malformed event stream: alloc time after the record's time in "
      "collect record");
}

//===----------------------------------------------------------------------===//
// WrongProgram: a recording replayed against a different program
//===----------------------------------------------------------------------===//

namespace {

/// A jack recording in 4 KB chunks (enough of them to shard), at \p Path.
void recordJack(const std::string &Path) {
  benchmarks::BenchmarkProgram Jack = benchmarks::buildJack();
  FileEventSink Sink;
  ASSERT_TRUE(Sink.open(Path));
  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.EventChunkBytes = 4 * KB;
  Opts.Sink = &Sink;
  vm::VirtualMachine VM(Jack.Prog, Opts);
  VM.setInputs(Jack.DefaultInputs);
  ASSERT_EQ(VM.run(), vm::Interpreter::Status::Ok);
  ASSERT_TRUE(VM.streamIntact());
}

/// jack's first site names method 27 of its own program; juru has 27.
const char *const ForeignSite =
    "recording does not match the program: site 0 names method 27, but it "
    "has 27 methods";

} // namespace

TEST(WrongProgram, SequentialReplayRejectsTheFirstForeignSite) {
  std::string Path = tempPath("wrong_seq.jdev");
  recordJack(Path);
  benchmarks::BenchmarkProgram Juru = benchmarks::buildJuru();
  ProfileLog Log;
  std::string Err;
  EXPECT_FALSE(replayProfile(Path, Juru.Prog, ProfilerConfig(), Log, &Err));
  EXPECT_EQ(Err, ForeignSite);
  EXPECT_TRUE(isProgramMismatch(Err));
  EXPECT_TRUE(Log.Sites.size() <= 1 && Log.Records.empty());
  std::remove(Path.c_str());
}

TEST(WrongProgram, ShardedReplayRejectsTheFirstForeignSite) {
  std::string Path = tempPath("wrong_par.jdev");
  recordJack(Path);
  benchmarks::BenchmarkProgram Juru = benchmarks::buildJuru();
  ProfileLog Log;
  std::string Err;
  EXPECT_FALSE(replaySharded(Path, Juru.Prog, ProfilerConfig(), 4, Log, &Err));
  EXPECT_EQ(Err, ForeignSite);
  std::remove(Path.c_str());
}

TEST(WrongProgram, StreamingAnalysisRejectsTheFirstForeignSite) {
  std::string Path = tempPath("wrong_stream.jdev");
  recordJack(Path);
  benchmarks::BenchmarkProgram Juru = benchmarks::buildJuru();
  for (unsigned Jobs : {1u, 4u})
    for (bool Materialize : {false, true}) {
      analysis::StreamAnalysisOptions SA;
      SA.Jobs = Jobs;
      SA.ForceMaterialize = Materialize;
      SA.WantLifetimes = true;
      SA.CurveSamples = 16;
      analysis::StreamAnalysisResult R;
      std::string Err;
      EXPECT_FALSE(analysis::analyzeEventStream(Path, Juru.Prog, SA, R, &Err))
          << Jobs << " " << Materialize;
      EXPECT_EQ(Err, ForeignSite) << Jobs << " " << Materialize;
      EXPECT_EQ(R.Report, nullptr);
    }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// FaultInjection: failing and flaky sinks
//===----------------------------------------------------------------------===//

TEST(FaultInjection, SinkFailureDoesNotTrapTheRunAndIsAccounted) {
  ir::Program P = buildChurnProgram();
  MemorySink Inner;
  FaultInjectionSink::Plan Plan;
  Plan.FailAfterBytes = 4096;
  FaultInjectionSink Faulty(Inner, Plan);

  // The run must complete normally (the paper's program result is not
  // hostage to profiling I/O) while every refused chunk is accounted.
  StreamHealth H = runChurnInto(P, Faulty);
  EXPECT_TRUE(Faulty.tripped());
  EXPECT_GT(H.ChunksWritten, 0u);
  EXPECT_GT(H.ChunksDropped, 0u);
  EXPECT_GT(H.BytesDropped, 0u);
  EXPECT_EQ(H.LastErrno, ENOSPC);
  EXPECT_FALSE(H.intact());

  // Every chunk that reached the sink verifies; the stream may end
  // mid-record (records straddle chunk boundaries), which is exactly
  // the partial tail salvage drops.
  CountingConsumer C;
  FrameDecoder D(C);
  EXPECT_TRUE(D.feed(Inner.bytes().data(), Inner.bytes().size()))
      << D.error();
  EXPECT_GT(D.chunksDecoded(), 0u);
  EXPECT_EQ(D.chunksDecoded(), H.ChunksWritten);
  EXPECT_GT(C.Events, 0u);
}

TEST(FaultInjection, DroppedChunksMarkTheLogIncompleteAndReportWarns) {
  ir::Program P = buildChurnProgram();
  DragProfiler Prof(P);
  FaultInjectionSink::Plan Plan;
  Plan.FailAfterBytes = 4096;
  FaultInjectionSink Faulty(Prof.sink(), Plan);

  StreamHealth H = runChurnInto(P, Faulty);
  ASSERT_FALSE(H.intact());
  Prof.noteStreamHealth(H);
  ProfileLog Log = Prof.takeLog();
  EXPECT_FALSE(Log.Complete);
  EXPECT_EQ(Log.DroppedChunks, H.ChunksDropped);
  EXPECT_EQ(Log.DroppedBytes, H.BytesDropped);

  // Incompleteness survives the log's file round trip and shows up as
  // a warning at the top of the rendered report.
  std::string Path = tempPath("incomplete.log");
  ASSERT_TRUE(Log.writeFile(Path));
  ProfileLog Back;
  ASSERT_TRUE(ProfileLog::readFile(Path, Back));
  std::remove(Path.c_str());
  EXPECT_FALSE(Back.Complete);
  EXPECT_EQ(Back.DroppedChunks, Log.DroppedChunks);
  EXPECT_EQ(Back.DroppedBytes, Log.DroppedBytes);

  analysis::DragReport Report(P, Back);
  std::string Text = analysis::renderDragReport(Report);
  EXPECT_NE(Text.find("WARNING: incomplete recording"), std::string::npos);
  EXPECT_NE(Text.find("lower bound"), std::string::npos);
}

/// FileEventSink whose underlying write fails transiently (EINTR, no
/// progress) on a schedule -- exercises the retry-with-backoff loop at
/// the fwrite seam.
class FlakyFileSink : public FileEventSink {
public:
  std::uint32_t FailEvery; ///< every Nth rawWrite fails transiently
  std::uint32_t Calls = 0;

  explicit FlakyFileSink(std::uint32_t FailEvery) : FailEvery(FailEvery) {}

protected:
  std::size_t rawWrite(const std::byte *Data, std::size_t Size) override {
    if (++Calls % FailEvery == 0) {
      errno = EINTR;
      return 0;
    }
    return FileEventSink::rawWrite(Data, Size);
  }
};

TEST(FaultInjection, TransientErrorsAreRetriedToACompleteRecording) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("flaky.jdev");
  FlakyFileSink Sink(/*FailEvery=*/2); // every other write EINTRs
  ASSERT_TRUE(Sink.open(Path));
  StreamHealth H = runChurnInto(P, Sink);

  // Every chunk eventually landed; the retries are visible in health.
  EXPECT_TRUE(H.intact());
  EXPECT_GT(H.Retries, 0u);
  EXPECT_EQ(H.ChunksDropped, 0u);

  CountingConsumer C;
  std::string Err;
  EXPECT_TRUE(replayFile(Path, C, &Err)) << Err;
  EXPECT_GT(C.Events, 0u);
  std::remove(Path.c_str());
}

TEST(FaultInjection, ExhaustedRetryBudgetFailsTheSink) {
  // A sink that only ever EINTRs must give up after MaxRetries instead
  // of spinning forever.
  class DeadSink : public FileEventSink {
  protected:
    std::size_t rawWrite(const std::byte *, std::size_t) override {
      errno = EINTR;
      return 0;
    }
  };
  std::string Path = tempPath("dead.jdev");
  DeadSink Sink;
  FileEventSink::Options Opt;
  Opt.Backoff.MaxRetries = 2;
  ASSERT_TRUE(Sink.open(Path, Opt)); // header goes through fwrite directly
  EventBuffer Buf(Sink);
  EventRecord E;
  E.Kind = static_cast<std::uint8_t>(EventKind::Terminate);
  Buf.writeEvent(E);
  EXPECT_FALSE(Buf.flush());
  EXPECT_FALSE(Buf.ok());
  StreamHealth H = Buf.health();
  EXPECT_EQ(H.ChunksDropped, 1u);
  EXPECT_EQ(H.Retries, 2u);
  EXPECT_EQ(H.LastErrno, EINTR);
  std::remove(Path.c_str());
}

TEST(FaultInjection, FsyncCadenceStillProducesAValidRecording) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("fsync.jdev");
  FileEventSink Sink;
  FileEventSink::Options Opt;
  Opt.FsyncEveryChunks = 1; // maximum durability: fsync per chunk
  ASSERT_TRUE(Sink.open(Path, Opt));
  StreamHealth H = runChurnInto(P, Sink, /*Work=*/100);
  EXPECT_TRUE(H.intact());
  CountingConsumer C;
  std::string Err;
  EXPECT_TRUE(replayFile(Path, C, &Err)) << Err;
  EXPECT_GT(C.Events, 0u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// AsyncSink: the background writer preserves the crash-safety contract
//===----------------------------------------------------------------------===//

TEST(AsyncSink, InnerFailureIsAccountedAndSalvageRecoversThePrefix) {
  // The acceptance scenario: a run whose *background* writer hits
  // ENOSPC mid-recording. StreamHealth must account the loss exactly as
  // the synchronous pipeline does, and the file must salvage to a
  // replayable prefix.
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("async_crash.jdev");
  FileEventSink File;
  ASSERT_TRUE(File.open(Path));
  FaultInjectionSink::Plan Plan;
  Plan.FailAfterBytes = 6 * 1024;
  FaultInjectionSink Faulty(File, Plan);

  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.Sink = &Faulty;
  Opts.EventChunkBytes = 512;
  Opts.AsyncEvents = true;
  vm::VirtualMachine VM(P, Opts);
  VM.setInputs({300});
  std::string Err;
  ASSERT_EQ(VM.run(&Err), vm::Interpreter::Status::Ok) << Err;

  StreamHealth H = VM.streamHealth();
  EXPECT_TRUE(Faulty.tripped());
  EXPECT_FALSE(H.intact());
  EXPECT_GT(H.ChunksWritten, 0u);
  EXPECT_GT(H.ChunksDropped, 0u);
  EXPECT_GT(H.BytesDropped, 0u);
  EXPECT_EQ(H.LastErrno, ENOSPC);

  // The prefix that reached the file salvages and replays.
  std::string Out = tempPath("async_crash_salvaged.jdev");
  SalvageReport Rep;
  ASSERT_TRUE(salvageEventFile(Path, Out, &Rep, &Err)) << Err;
  EXPECT_GT(Rep.EventsRecovered, 0u);
  CountingConsumer C;
  ASSERT_TRUE(replayFile(Out, C, &Err)) << Err;
  EXPECT_EQ(C.Events + C.Sites, Rep.EventsRecovered);
  std::remove(Path.c_str());
  std::remove(Out.c_str());
}

TEST(AsyncSink, DropPolicyAccountsEveryShedChunk) {
  // Gate the inner sink so the queue is provably full, then count that
  // accepted == forwarded + dropped with no chunk unaccounted.
  class GatedSink : public EventSink {
  public:
    std::atomic<bool> Gate{false};
    MemorySink Mem;
    bool writeChunk(const std::byte *D, std::size_t S) override {
      while (!Gate.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return Mem.writeChunk(D, S);
    }
  };
  GatedSink Inner;
  AsyncEventSink::Options AO;
  AO.QueueChunks = 2;
  AO.Policy = AsyncEventSink::QueueFullPolicy::Drop;
  AsyncEventSink Async(Inner, AO);

  constexpr std::size_t ChunkSize = 128;
  constexpr std::uint64_t Total = 10;
  std::vector<std::byte> Chunk(ChunkSize, std::byte{0x5A});
  std::uint64_t Accepted = 0;
  for (std::uint64_t I = 0; I != Total; ++I)
    Accepted += Async.writeChunk(Chunk.data(), Chunk.size());
  EXPECT_EQ(Accepted, Total); // drop policy never refuses
  // Queue holds at most 2 + 1 in flight; with the writer gated at least
  // Total - QueueChunks - 1 chunks must have been shed already.
  EXPECT_GE(Async.droppedChunks(), Total - AO.QueueChunks - 1);

  Inner.Gate.store(true);
  EXPECT_FALSE(Async.finish()) << "a lossy stream must not finish clean";
  EXPECT_EQ(Async.chunksForwarded() + Async.droppedChunks(), Total);
  EXPECT_EQ(Async.droppedBytes(), Async.droppedChunks() * ChunkSize);
  EXPECT_EQ(Inner.Mem.bytes().size(), Async.chunksForwarded() * ChunkSize);
}

TEST(AsyncSink, DroppedChunksLeaveADetectableSequenceGap) {
  // A shed chunk must not go unnoticed at decode time: the survivors'
  // sequence numbers jump, and the strict decoder says so.
  MemorySink Mem;
  EventBuffer Buf(Mem, /*ChunkBytes=*/64);
  // Compact v3 Collect records are ~3 bytes; 400 of them fill enough
  // 64-byte chunks that a spliced-out chunk always has a successor
  // whose sequence number exposes the gap.
  for (int I = 0; I != 400; ++I) {
    EventRecord E;
    E.Kind = static_cast<std::uint8_t>(EventKind::Collect);
    E.Time = 100 + I;
    E.Id = I;
    Buf.writeEvent(E);
  }
  ASSERT_TRUE(Buf.flush());

  // Remove the second chunk from the framed stream, as a Drop-policy
  // queue overflow would.
  std::span<const std::byte> Bytes = Mem.bytes();
  ChunkHeader H0;
  std::memcpy(&H0, Bytes.data(), sizeof(H0));
  std::size_t First = sizeof(ChunkHeader) + H0.PayloadBytes;
  ChunkHeader H1;
  std::memcpy(&H1, Bytes.data() + First, sizeof(H1));
  std::size_t Second = sizeof(ChunkHeader) + H1.PayloadBytes;
  std::vector<std::byte> Gapped(Bytes.begin(), Bytes.begin() + First);
  Gapped.insert(Gapped.end(), Bytes.begin() + First + Second, Bytes.end());

  CountingConsumer C;
  std::string Err;
  EXPECT_FALSE(replayBytes(Gapped, C, &Err));
  EXPECT_NE(Err.find("sequence"), std::string::npos) << Err;
}

TEST(AsyncSink, FinishIsIdempotentAndLosslessWhenNothingDrops) {
  MemorySink Mem;
  AsyncEventSink Async(Mem);
  std::vector<std::byte> Chunk(256, std::byte{0x11});
  for (int I = 0; I != 50; ++I)
    ASSERT_TRUE(Async.writeChunk(Chunk.data(), Chunk.size()));
  EXPECT_TRUE(Async.finish());
  EXPECT_TRUE(Async.finish()); // idempotent
  EXPECT_EQ(Async.droppedChunks(), 0u);
  EXPECT_EQ(Mem.bytes().size(), 50u * 256u);
  // Writes after finish are refused, not queued into the void.
  EXPECT_FALSE(Async.writeChunk(Chunk.data(), Chunk.size()));
}

//===----------------------------------------------------------------------===//
// Salvage: fsck verdicts and prefix recovery
//===----------------------------------------------------------------------===//

/// Records the churn workload to \p Path with 512-byte chunks and
/// returns the clean scan (verdicts carry every chunk's file offset).
SalvageReport recordChurn(const ir::Program &P, const std::string &Path) {
  FileEventSink Sink;
  EXPECT_TRUE(Sink.open(Path));
  StreamHealth H = runChurnInto(P, Sink);
  EXPECT_TRUE(H.intact());
  SalvageReport Rep = scanEventFile(Path, nullptr);
  EXPECT_TRUE(Rep.clean()) << Rep.summary(Path);
  EXPECT_GE(Rep.Chunks.size(), 4u) << "need several chunks to damage";
  return Rep;
}

TEST(Salvage, CleanRecordingScansClean) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("clean.jdev");
  SalvageReport Rep = recordChurn(P, Path);
  EXPECT_EQ(Rep.chunksDamaged(), 0u);
  EXPECT_EQ(Rep.FirstDamaged, SalvageReport::npos);
  EXPECT_FALSE(Rep.TailPartialRecord);
  CountingConsumer C;
  ASSERT_TRUE(replayFile(Path, C));
  EXPECT_EQ(Rep.EventsRecovered, C.Events + C.Sites);
  std::string Summary = Rep.summary(Path);
  EXPECT_NE(Summary.find("0 damaged"), std::string::npos) << Summary;
  std::remove(Path.c_str());
}

TEST(Salvage, BitFlippedChunkIsNamedAndPrefixRecovered) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("flip.jdev");
  SalvageReport Clean = recordChurn(P, Path);

  // Flip one payload bit in a middle chunk.
  std::size_t Victim = Clean.Chunks.size() / 2;
  std::vector<std::byte> Bytes = readFileBytes(Path);
  std::size_t FlipAt =
      Clean.Chunks[Victim].Offset + sizeof(ChunkHeader) + 3;
  Bytes[FlipAt] ^= std::byte(0x10);
  writeFileBytes(Path, Bytes);

  // Strict replay refuses the file outright.
  CountingConsumer Strict;
  std::string Err;
  EXPECT_FALSE(replayFile(Path, Strict, &Err));
  EXPECT_NE(Err.find("CRC"), std::string::npos) << Err;

  // The scan names exactly the damaged chunk and keeps judging the
  // rest (all still structurally valid).
  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_FALSE(Rep.clean());
  ASSERT_EQ(Rep.FirstDamaged, Victim);
  EXPECT_EQ(Rep.Chunks[Victim].Status, ChunkStatus::BadCrc);
  EXPECT_EQ(Rep.chunksDamaged(), 1u);
  EXPECT_EQ(Rep.Chunks.size(), Clean.Chunks.size());
  EXPECT_LT(Rep.EventsRecovered, Clean.EventsRecovered);
  std::string Summary = Rep.summary(Path);
  EXPECT_NE(Summary.find("crc-mismatch"), std::string::npos) << Summary;

  // Salvage writes a fully valid recording holding exactly the prefix.
  std::string Out = tempPath("flip_salvaged.jdev");
  SalvageReport Rep2;
  ASSERT_TRUE(salvageEventFile(Path, Out, &Rep2, &Err)) << Err;
  CountingConsumer C;
  ASSERT_TRUE(replayFile(Out, C, &Err)) << Err;
  EXPECT_EQ(C.Events + C.Sites, Rep.EventsRecovered);
  std::remove(Path.c_str());
  std::remove(Out.c_str());
}

TEST(Salvage, MidChunkTruncationRecoversAllCompleteChunks) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("cut.jdev");
  SalvageReport Clean = recordChurn(P, Path);

  // Cut the file in the middle of the second-to-last chunk's payload.
  std::size_t Victim = Clean.Chunks.size() - 2;
  std::vector<std::byte> Bytes = readFileBytes(Path);
  Bytes.resize(Clean.Chunks[Victim].Offset + sizeof(ChunkHeader) + 37);
  writeFileBytes(Path, Bytes);

  CountingConsumer Strict;
  std::string Err;
  EXPECT_FALSE(replayFile(Path, Strict, &Err));
  EXPECT_NE(Err.find("truncated"), std::string::npos) << Err;

  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_FALSE(Rep.clean());
  ASSERT_EQ(Rep.FirstDamaged, Victim);
  EXPECT_EQ(Rep.Chunks[Victim].Status, ChunkStatus::TruncatedPayload);
  ASSERT_EQ(Rep.Chunks.size(), Victim + 1); // nothing beyond EOF

  std::string Out = tempPath("cut_salvaged.jdev");
  ASSERT_TRUE(salvageEventFile(Path, Out, nullptr, &Err)) << Err;
  CountingConsumer C;
  ASSERT_TRUE(replayFile(Out, C, &Err)) << Err;
  EXPECT_EQ(C.Events + C.Sites, Rep.EventsRecovered);
  EXPECT_GT(C.Events, 0u);
  std::remove(Path.c_str());
  std::remove(Out.c_str());
}

TEST(Salvage, OverwrittenChunkHeaderResynchronizesOnNextMagic) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("zeroed.jdev");
  SalvageReport Clean = recordChurn(P, Path);

  // Zero a middle chunk's whole header: magic, length and CRC are all
  // garbage, so the scan must hunt for the next chunk magic to keep
  // judging the remainder of the file.
  std::size_t Victim = Clean.Chunks.size() / 2;
  std::vector<std::byte> Bytes = readFileBytes(Path);
  std::memset(Bytes.data() + Clean.Chunks[Victim].Offset, 0,
              sizeof(ChunkHeader));
  writeFileBytes(Path, Bytes);

  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_FALSE(Rep.clean());
  ASSERT_EQ(Rep.FirstDamaged, Victim);
  EXPECT_EQ(Rep.Chunks[Victim].Status, ChunkStatus::BadMagic);
  // Resync found the following chunks and judged them individually.
  EXPECT_GT(Rep.Chunks.size(), Victim + 1);
  EXPECT_TRUE(Rep.Chunks.back().ok());
  EXPECT_LT(Rep.EventsRecovered, Clean.EventsRecovered);
  std::remove(Path.c_str());
}

TEST(Salvage, SalvageOfACleanFileIsAnIdentityForReplay) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("ident.jdev");
  std::string Out = tempPath("ident_salvaged.jdev");
  recordChurn(P, Path);
  std::string Err;
  ASSERT_TRUE(salvageEventFile(Path, Out, nullptr, &Err)) << Err;

  ProfileLog A, B;
  ASSERT_TRUE(replayProfile(Path, P, ProfilerConfig(), A, &Err)) << Err;
  ASSERT_TRUE(replayProfile(Out, P, ProfilerConfig(), B, &Err)) << Err;
  expectBitIdentical(A, B);
  std::remove(Path.c_str());
  std::remove(Out.c_str());
}

// The acceptance criterion: a run whose sink dies mid-recording (with a
// short write truncating the stream mid-frame) leaves a `.jdev` whose
// salvaged replay produces exactly the profile of the pre-failure event
// prefix of an undamaged reference run.
TEST(Salvage, CrashedRecordingSalvagesToTheExactPrefixProfile) {
  ir::Program P = buildChurnProgram();

  // Reference run: identical workload, undamaged recording.
  std::string RefPath = tempPath("accept_ref.jdev");
  {
    FileEventSink Sink;
    ASSERT_TRUE(Sink.open(RefPath));
    ASSERT_TRUE(runChurnInto(P, Sink).intact());
  }

  // Crashing run: the sink dies mid-stream and truncates mid-frame.
  std::string CrashPath = tempPath("accept_crash.jdev");
  {
    FileEventSink File;
    ASSERT_TRUE(File.open(CrashPath));
    FaultInjectionSink::Plan Plan;
    Plan.FailAfterBytes = 6 * 1024;
    Plan.ShortWriteBytes = 100; // a torn frame at the end of the file
    FaultInjectionSink Faulty(File, Plan);
    StreamHealth H = runChurnInto(P, Faulty);
    EXPECT_TRUE(Faulty.tripped());
    EXPECT_FALSE(H.intact());
    EXPECT_GT(H.ChunksWritten, 0u);
  }

  // Salvage the crashed recording and replay it through the profiler.
  std::string Salvaged = tempPath("accept_salvaged.jdev");
  SalvageReport Rep;
  std::string Err;
  ASSERT_TRUE(salvageEventFile(CrashPath, Salvaged, &Rep, &Err)) << Err;
  ASSERT_GT(Rep.EventsRecovered, 0u);
  ProfileLog SalvagedLog;
  ASSERT_TRUE(
      replayProfile(Salvaged, P, ProfilerConfig(), SalvagedLog, &Err))
      << Err;

  // Oracle: the same number of events taken off the front of the
  // reference stream, fed to a fresh profiler. The VM is deterministic,
  // so the reference stream is byte-for-byte the stream the crashing
  // run tried to write.
  OrderedCollector Ref;
  ASSERT_TRUE(replayFile(RefPath, Ref, &Err)) << Err;
  ASSERT_GT(Ref.Items.size(), Rep.EventsRecovered);
  DragProfiler PrefixProf(P);
  Ref.replayPrefix(Rep.EventsRecovered, PrefixProf);
  ProfileLog PrefixLog = PrefixProf.takeLog();

  expectBitIdentical(SalvagedLog, PrefixLog);
  std::remove(RefPath.c_str());
  std::remove(CrashPath.c_str());
  std::remove(Salvaged.c_str());
}

// A v2 record straddles chunks, so the scan decodes the joined prefix
// after its walk: a CRC-valid but malformed record is charged to the
// chunk it starts in, and the prefix ends where that record begins.
TEST(Salvage, LegacyMalformedRecordMarksTheChunkItStartsIn) {
  // v2's fixed 40-byte record: time, id, two arguments, site, kind,
  // sub, flags and a reserved byte.
  struct V2Record {
    std::uint64_t Time = 0, Id = 0, Arg0 = 0, Arg1 = 0;
    std::uint32_t Site = 0;
    std::uint8_t Kind = 0, Sub = 0, Flags = 0, Reserved = 0;
  };
  static_assert(sizeof(V2Record) == 40);
  V2Record Records[3];
  Records[0].Kind = static_cast<std::uint8_t>(EventKind::GCEnd);
  Records[0].Time = 1;
  Records[1].Kind = 200; // no such kind
  Records[2].Kind = static_cast<std::uint8_t>(EventKind::Terminate);
  const auto *Bytes = reinterpret_cast<const std::byte *>(Records);
  // Chunk 0: record 0 and the first half of record 1; chunk 1: the
  // rest.
  std::size_t Split = sizeof(V2Record) + sizeof(V2Record) / 2;
  std::string Path = tempPath("v2_bad_record.jdev");
  {
    // The 16-byte v2 header: magic, version 2, reserved.
    std::vector<std::byte> File(16);
    std::uint32_t Version = 2;
    std::memcpy(File.data(), &StreamFileMagic, 8);
    std::memcpy(File.data() + 8, &Version, 4);
    std::span<const std::byte> Payloads[] = {
        {Bytes, Split}, {Bytes + Split, sizeof(Records) - Split}};
    for (std::uint32_t Seq = 0; Seq != 2; ++Seq) {
      ChunkHeader H;
      H.Magic = ChunkMagic;
      H.Seq = Seq;
      H.PayloadBytes = static_cast<std::uint32_t>(Payloads[Seq].size());
      H.Crc = support::crc32c(Payloads[Seq].data(), H.PayloadBytes);
      const auto *HB = reinterpret_cast<const std::byte *>(&H);
      File.insert(File.end(), HB, HB + sizeof(H));
      File.insert(File.end(), Payloads[Seq].begin(), Payloads[Seq].end());
    }
    writeFileBytes(Path, File);
  }

  CountingConsumer Strict;
  std::string Err;
  EXPECT_FALSE(replayFile(Path, Strict, &Err));
  EXPECT_NE(Err.find("unknown event kind"), std::string::npos) << Err;

  CountingConsumer C;
  SalvageReport Rep = scanEventFile(Path, &C);
  ASSERT_EQ(Rep.Chunks.size(), 2u);
  EXPECT_EQ(Rep.FirstDamaged, 0u);
  EXPECT_EQ(Rep.Chunks[0].Status, ChunkStatus::BadRecords);
  EXPECT_TRUE(Rep.Chunks[1].ok());
  EXPECT_EQ(Rep.EventsRecovered, 1u);
  EXPECT_EQ(C.Events, 1u);
  EXPECT_EQ(Rep.BytesRecovered, sizeof(V2Record));
  EXPECT_FALSE(Rep.TailPartialRecord);
  std::remove(Path.c_str());
}

// A directory opens like a file but has no byte count: every reader
// refuses it as unreadable instead of sizing a buffer by its length.
TEST(Salvage, DirectoryInputIsUnreadable) {
  std::string Dir = tempPath("dir_input");
  std::filesystem::create_directory(Dir);
  std::vector<std::byte> Bytes;
  EXPECT_FALSE(readWholeFile(Dir, Bytes));

  SalvageReport Rep = scanEventFile(Dir, nullptr);
  EXPECT_FALSE(Rep.readable());
  EXPECT_EQ(Rep.FileError, "cannot read file");

  std::string Out = tempPath("dir_input_salvaged.jdev");
  std::string Err;
  EXPECT_FALSE(salvageEventFile(Dir, Out, nullptr, &Err));
  EXPECT_EQ(Err, Dir + ": cannot read file");
  EXPECT_FALSE(std::filesystem::exists(Out));
  std::filesystem::remove(Dir);
}

// Opening the output truncates it, so salvaging a recording into
// itself -- by the same path, a hard link or a symlink -- must fail
// before the output is opened and leave the recording as it was.
TEST(Salvage, RefusesToOverwriteItsInput) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("self.jdev");
  std::string Hard = tempPath("self_hardlink.jdev");
  std::string Sym = tempPath("self_symlink.jdev");
  recordChurn(P, Path);
  std::vector<std::byte> Before = readFileBytes(Path);
  std::filesystem::remove(Hard);
  std::filesystem::remove(Sym);
  std::filesystem::create_hard_link(Path, Hard);
  std::filesystem::create_symlink(Path, Sym);

  for (const std::string &Out : {Path, Hard, Sym}) {
    SCOPED_TRACE(Out);
    std::string Err;
    EXPECT_FALSE(salvageEventFile(Path, Out, nullptr, &Err));
    EXPECT_EQ(Err, "cannot write " + Out + ": it is the input " + Path);
    EXPECT_TRUE(readFileBytes(Path) == Before) << "the input was rewritten";
  }
  std::remove(Sym.c_str());
  std::remove(Hard.c_str());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// HostileIds: object ids far outside the heap's dense range
//===----------------------------------------------------------------------===//

constexpr std::uint64_t HostileIdValues[] = {std::uint64_t(1) << 40,
                                             std::uint64_t(1) << 62};

std::string writeHostileIdFile(std::uint64_t Hostile) {
  std::string Path = tempPath("hostile_id.jdev");
  FileEventSink Sink;
  EXPECT_TRUE(Sink.open(Path));
  EventBuffer Buf(Sink);
  writeHostileIdEvents(Buf, Hostile);
  EXPECT_TRUE(Sink.finish());
  return Path;
}

std::size_t peakRssBytes() {
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<std::size_t>(U.ru_maxrss) * 1024;
}

TEST(HostileIds, SequentialReplayKeepsTrailerStateSmall) {
  ir::Program P = buildChurnProgram();
  for (std::uint64_t Hostile : HostileIdValues) {
    std::string Path = writeHostileIdFile(Hostile);
    DragProfiler Prof(P);
    std::string Err;
    ASSERT_TRUE(replayFile(Path, Prof, &Err)) << Err;
    // Every record arrives finished: nothing is kept per object id.
    EXPECT_EQ(Prof.peakLiveTrailers(), 0u);
    const ProfileLog &Log = Prof.log();
    ASSERT_EQ(Log.Records.size(), 2u);
    EXPECT_EQ(Log.Records[0].Id, 1u);
    EXPECT_EQ(Log.Records[1].Id, Hostile);
    EXPECT_TRUE(Log.Records[1].SurvivedToEnd);
    EXPECT_EQ(Log.Records[1].UseCount, 1u);
    std::remove(Path.c_str());
  }
}

// Ids that wrap around 2^64 inside a chunk and from a chunk's zero base:
// the decoder adds id deltas modulo 2^64, so every reader must see
// exactly the ids written, and sequential and sharded replay agree.
TEST(HostileIds, WrappingIdsAgreeAcrossReaders) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("wrapping_ids.jdev");
  {
    FileEventSink Sink;
    ASSERT_TRUE(Sink.open(Path));
    EventBuffer Buf(Sink);
    writeWrappingIdEvents(Buf);
    ASSERT_TRUE(Sink.finish());
  }
  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_TRUE(Rep.clean()) << Rep.summary(Path);
  EXPECT_EQ(Rep.Chunks.size(), 2u);
  EXPECT_EQ(Rep.EventsRecovered, 4u);

  DragProfiler Prof(P);
  std::string Err;
  ASSERT_TRUE(replayFile(Path, Prof, &Err)) << Err;
  ProfileLog Seq = Prof.takeLog();
  ASSERT_EQ(Seq.Records.size(), 3u);
  std::set<std::uint64_t> Ids;
  for (const ObjectRecord &R : Seq.Records) {
    Ids.insert(R.Id);
    EXPECT_EQ(R.Bytes, 16u);
    EXPECT_EQ(R.SurvivedToEnd, R.Id == WrappingIds[2]) << R.Id;
    EXPECT_EQ(R.UseCount, R.Id == WrappingIds[2] ? 2u : 1u) << R.Id;
  }
  EXPECT_EQ(Ids, std::set<std::uint64_t>(std::begin(WrappingIds),
                                         std::end(WrappingIds)));

  ProfileLog SeqFile, Par;
  ASSERT_TRUE(replayProfile(Path, P, ProfilerConfig(), SeqFile, &Err)) << Err;
  ASSERT_TRUE(replaySharded(Path, P, ProfilerConfig(), 4, Par, &Err)) << Err;
  expectSameProfile(SeqFile, Par);
  std::remove(Path.c_str());
}

// One id ended once in each of three shards: every record stands
// alone, so each is logged, sharded as sequentially, with its own alloc
// time and uses.
TEST(HostileIds, ReallocatedIdAcrossShardsMatchesSequential) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("reallocated_id.jdev");
  {
    FileEventSink Sink;
    ASSERT_TRUE(Sink.open(Path));
    EventBuffer Buf(Sink);
    writeReallocatedIdEvents(Buf);
    ASSERT_TRUE(Sink.finish());
  }
  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_TRUE(Rep.clean()) << Rep.summary(Path);
  ASSERT_EQ(Rep.Chunks.size(), 3u);

  ProfileLog Seq, Par;
  std::string Err;
  ASSERT_TRUE(replayProfile(Path, P, ProfilerConfig(), Seq, &Err)) << Err;
  ASSERT_EQ(Seq.Records.size(), 3u);
  for (std::size_t I = 0; I != 3; ++I) {
    EXPECT_EQ(Seq.Records[I].Id, ReallocatedId);
    EXPECT_EQ(Seq.Records[I].AllocTime, I == 0 ? 100u : I * 200u);
    EXPECT_EQ(Seq.Records[I].UseCount, I == 0 ? 0u : 1u);
  }
  unsigned Shards = 0;
  ASSERT_TRUE(replaySharded(Path, P, ProfilerConfig(), 4, Par, &Err, &Shards))
      << Err;
  EXPECT_EQ(Shards, 3u);
  expectSameProfile(Seq, Par);

  analysis::StreamAnalysisOptions O;
  O.Jobs = 4;
  analysis::StreamAnalysisResult R;
  ASSERT_TRUE(analysis::analyzeEventStream(Path, P, O, R, &Err)) << Err;
  EXPECT_TRUE(R.Sharded);
  EXPECT_EQ(R.RecordsFolded, 3u);
  std::remove(Path.c_str());
}

TEST(HostileIds, ParallelReplayMatchesSequentialInBoundedMemory) {
  ir::Program P = buildChurnProgram();
  for (std::uint64_t Hostile : HostileIdValues) {
    std::string Path = writeHostileIdFile(Hostile);
    ProfileLog Seq, Par;
    std::string Err;
    ASSERT_TRUE(replayProfile(Path, P, ProfilerConfig(), Seq, &Err)) << Err;
    // The two chunks land in different shards, one record each.
    std::size_t RssBefore = peakRssBytes();
    unsigned Shards = 0;
    ASSERT_TRUE(
        replaySharded(Path, P, ProfilerConfig(), 4, Par, &Err, &Shards))
        << Err;
    EXPECT_LT(peakRssBytes() - RssBefore, std::size_t(64) << 20) << Hostile;
    EXPECT_GE(Shards, 2u);
    ASSERT_EQ(Par.Records.size(), 2u);
    expectSameProfile(Seq, Par);
    // The streaming sharded pass over the same bytes really splits.
    analysis::StreamAnalysisOptions O;
    O.Jobs = 4;
    analysis::StreamAnalysisResult R;
    ASSERT_TRUE(analysis::analyzeEventStream(Path, P, O, R, &Err)) << Err;
    EXPECT_TRUE(R.Sharded);
    EXPECT_EQ(R.RecordsFolded, 2u);
    std::remove(Path.c_str());
  }
}

//===----------------------------------------------------------------------===//
// HostileClock: a byte clock that runs backwards across a shard boundary
//===----------------------------------------------------------------------===//

// The object is allocated at t=500 in chunk 1, after chunk 0's deep-GC
// boundary at t=1000. Its record carries the boundary its use saw
// (400), so the shard that decodes chunk 1 alone snaps the use to
// max(400, 500) = 500 exactly as sequential replay does: no reader
// needs the boundary of an earlier chunk.
TEST(HostileClock, ShardedMatchesSequential) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("backward_clock.jdev");
  {
    FileEventSink Sink;
    ASSERT_TRUE(Sink.open(Path));
    EventBuffer Buf(Sink);
    writeBackwardClockEvents(Buf);
    ASSERT_TRUE(Sink.finish());
  }
  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_TRUE(Rep.clean()) << Rep.summary(Path);
  ASSERT_EQ(Rep.Chunks.size(), 2u);

  ProfileLog Seq, Par;
  std::string Err;
  ASSERT_TRUE(replayProfile(Path, P, ProfilerConfig(), Seq, &Err)) << Err;
  ASSERT_EQ(Seq.Records.size(), 1u);
  EXPECT_EQ(Seq.Records[0].FirstUseTime, 500u);
  unsigned Shards = 0;
  ASSERT_TRUE(replaySharded(Path, P, ProfilerConfig(), 4, Par, &Err, &Shards))
      << Err;
  EXPECT_EQ(Shards, 2u);
  expectSameProfile(Seq, Par);

  analysis::StreamAnalysisOptions O;
  O.WantLifetimes = true;
  analysis::StreamAnalysisResult One, Four;
  ASSERT_TRUE(analysis::analyzeEventStream(Path, P, O, One, &Err)) << Err;
  O.Jobs = 4;
  ASSERT_TRUE(analysis::analyzeEventStream(Path, P, O, Four, &Err)) << Err;
  EXPECT_EQ(One.Lifetimes.Lag, 0.0);
  EXPECT_EQ(One.Lifetimes.Drag, 16.0 * 200);
  EXPECT_EQ(Four.Lifetimes.Lag, One.Lifetimes.Lag);
  EXPECT_EQ(Four.Lifetimes.Use, One.Lifetimes.Use);
  EXPECT_EQ(Four.Lifetimes.Drag, One.Lifetimes.Drag);
  EXPECT_EQ(Four.Lifetimes.Void, One.Lifetimes.Void);
  ASSERT_TRUE(One.Report && Four.Report);
  EXPECT_EQ(analysis::renderDragReport(*Four.Report),
            analysis::renderDragReport(*One.Report));
  EXPECT_EQ(Four.RecordsFolded, 1u);
  std::remove(Path.c_str());
}

} // namespace

//===----------------------------------------------------------------------===//
// TypedDecode: the DragProfiler loop against the virtual one
//===----------------------------------------------------------------------===//
//
// DragProfiler is final, so every decoder handed one runs the record loop
// instantiated for it, with the trailer rules inlined into the decode.
// Any other consumer runs the shared EventConsumer instantiation. Both
// must agree on everything a reader can observe, on good and bad input.

namespace {

/// Forwards every record to a DragProfiler through the virtual
/// interface. Not final, so it decodes in the EventConsumer loop.
class ForwardingConsumer : public EventConsumer {
public:
  explicit ForwardingConsumer(DragProfiler &P) : P(P) {}
  void onSite(SiteId Id, std::span<const SiteFrame> Frames) override {
    P.onSite(Id, Frames);
  }
  void onEvent(const EventRecord &E) override { P.onEvent(E); }
  const ir::Program *siteProgram() const override { return P.siteProgram(); }

private:
  DragProfiler &P;
};

static_assert(std::is_final_v<DragProfiler>);
static_assert(!std::is_final_v<ForwardingConsumer>);

/// Everything a reader can observe of one decode.
struct DecodeOutcome {
  bool Fed = false;
  bool AtBoundary = false;
  std::string Error;
  std::uint64_t Events = 0;
  std::uint64_t Bytes = 0;
  std::uint64_t Chunks = 0;
  std::size_t PeakLive = 0;
  std::vector<std::byte> Log; ///< the serialized ProfileLog
};

std::vector<std::byte> serializedLog(const ProfileLog &Log) {
  std::string Path = tempPath("typed_log.bin");
  EXPECT_TRUE(Log.writeFile(Path));
  std::vector<std::byte> Bytes = readFileBytes(Path);
  std::remove(Path.c_str());
  return Bytes;
}

void expectSameOutcome(const DecodeOutcome &T, const DecodeOutcome &V,
                       const std::string &Tag) {
  EXPECT_EQ(T.Fed, V.Fed) << Tag;
  EXPECT_EQ(T.AtBoundary, V.AtBoundary) << Tag;
  EXPECT_EQ(T.Error, V.Error) << Tag;
  EXPECT_EQ(T.Events, V.Events) << Tag;
  EXPECT_EQ(T.Bytes, V.Bytes) << Tag;
  EXPECT_EQ(T.Chunks, V.Chunks) << Tag;
  EXPECT_EQ(T.PeakLive, V.PeakLive) << Tag;
  EXPECT_TRUE(T.Log == V.Log) << Tag << ": serialized logs differ";
}

/// Feeds the framed stream \p Framed (no file header) to a FrameDecoder
/// whose consumer is a DragProfiler (\p Typed) or a ForwardingConsumer
/// in front of one.
DecodeOutcome frameDecode(const ir::Program &P,
                          std::span<const std::byte> Framed, WireFormat F,
                          bool Typed) {
  DragProfiler Prof(P);
  ForwardingConsumer Fwd(Prof);
  FrameDecoder D = Typed ? FrameDecoder(Prof, F) : FrameDecoder(Fwd, F);
  DecodeOutcome O;
  O.Fed = D.feed(Framed.data(), Framed.size());
  O.AtBoundary = D.atRecordBoundary();
  O.Error = D.error();
  O.Events = D.eventsDecoded();
  O.Bytes = D.bytesDecoded();
  O.Chunks = D.chunksDecoded();
  O.PeakLive = Prof.peakLiveTrailers();
  O.Log = serializedLog(Prof.log());
  return O;
}

/// Replays the framed stream \p Framed (no file header) through
/// replayBytes, the legacy formats' reader, into a DragProfiler
/// (\p Typed) or a ForwardingConsumer in front of one. The decoder's
/// counters stay zero: replayBytes does not report them.
DecodeOutcome replayDecode(const ir::Program &P,
                           std::span<const std::byte> Framed, WireFormat F,
                           bool Typed) {
  DragProfiler Prof(P);
  ForwardingConsumer Fwd(Prof);
  DecodeOutcome O;
  O.Fed = Typed ? replayBytes(Framed, Prof, &O.Error, F)
                : replayBytes(Framed, Fwd, &O.Error, F);
  O.AtBoundary = O.Fed;
  O.PeakLive = Prof.peakLiveTrailers();
  O.Log = serializedLog(Prof.log());
  return O;
}

/// Decodes \p Body as one chunk body, bypassing the frame CRC, so the
/// record layer itself sees damaged bytes.
DecodeOutcome bodyDecode(const ir::Program &P,
                         std::span<const std::byte> Body, bool Typed) {
  DragProfiler Prof(P);
  ForwardingConsumer Fwd(Prof);
  StreamDecoder D = Typed ? StreamDecoder(Prof) : StreamDecoder(Fwd);
  DecodeOutcome O;
  O.Fed = D.decodeChunk(Body.data(), Body.size());
  O.AtBoundary = D.recordCut();
  O.Error = D.error();
  O.Events = D.eventsDecoded();
  O.Bytes = D.bytesDecoded();
  O.PeakLive = Prof.peakLiveTrailers();
  O.Log = serializedLog(Prof.log());
  return O;
}

void expectFrameAgreement(const ir::Program &P,
                          std::span<const std::byte> Framed, WireFormat F,
                          const std::string &Tag) {
  expectSameOutcome(frameDecode(P, Framed, F, true),
                    frameDecode(P, Framed, F, false), Tag);
}

/// The framed records of an in-memory recording of \p B.
std::vector<std::byte> recordInMemory(const benchmarks::BenchmarkProgram &B,
                                      std::uint64_t SampleBytes) {
  MemorySink Mem;
  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.Sink = &Mem;
  Opts.SampleBytes = SampleBytes;
  vm::VirtualMachine VM(B.Prog, Opts);
  VM.setInputs(B.DefaultInputs);
  EXPECT_EQ(VM.run(), vm::Interpreter::Status::Ok) << B.Name;
  return {Mem.bytes().begin(), Mem.bytes().end()};
}

/// A framed stream in 256-byte chunks with records of every kind, and
/// trailers of every shape -- arrays of every array kind and instances,
/// unused, used only in initialization and used outside it, under
/// changing deep-GC boundaries -- so damage can turn any record into
/// any other and reach every trailer check.
std::vector<std::byte> buildEveryKindStream() {
  MemorySink Mem;
  EventBuffer Buf(Mem, 256);
  std::vector<SiteFrame> Frames = {{ir::MethodId(3), 7, 42}};
  Buf.writeSite(SiteId(0), Frames);
  ByteTime Boundary = 0;
  auto Timed = [&](EventKind K, ByteTime T) {
    EventRecord E;
    E.Kind = static_cast<std::uint8_t>(K);
    E.Time = T;
    E.Arg0 = T * 3;
    E.Arg1 = T / 16;
    Buf.writeEvent(E);
  };
  auto End = [&](EventKind K, ByteTime T, vm::ObjectId Id) {
    EventRecord E;
    E.Kind = static_cast<std::uint8_t>(K);
    E.Time = T;
    E.Id = Id;
    E.Arg0 = 16 + Id % 200;
    bool Array = Id % 3 == 0;
    E.Arg1 = Array ? ir::ClassId().Index : Id % 5;
    E.Sub = static_cast<std::uint8_t>(Id % 4);
    E.Site = 0;
    E.AllocTime = 60 + 40 * Id;
    E.UseCount = static_cast<std::uint32_t>(Id % 4);
    bool OutsideInit = E.UseCount && Id % 2;
    E.Flags = static_cast<std::uint8_t>((Array ? RecordIsArray : 0) |
                                        (OutsideInit ? RecordUsedOutsideInit
                                                     : 0));
    E.FirstUseTime = E.FirstUseBoundary = E.AllocTime;
    E.LastUseTime = E.LastUseBoundary = E.AllocTime;
    if (E.UseCount) {
      E.LastUseSite = 0;
      E.LastUseTime = E.AllocTime + 30;
      E.LastUseBoundary = std::min(Boundary, E.LastUseTime);
    }
    if (OutsideInit) {
      E.FirstUseTime = E.AllocTime + 10;
      E.FirstUseBoundary = std::min(Boundary, E.FirstUseTime);
    }
    Buf.writeEvent(E);
  };
  for (std::uint32_t I = 0; I != 60; ++I) {
    ByteTime T = 100 + 40 * I;
    if (I % 10 == 9) {
      Timed(EventKind::GCEnd, T);
      Timed(EventKind::DeepGCEnd, T);
      Boundary = T;
    }
    if (I >= 2)
      End(EventKind::Collect, T, I - 2);
  }
  End(EventKind::Survivor, 3000, 58);
  End(EventKind::Survivor, 3000, 59);
  Timed(EventKind::Terminate, 3000);
  EXPECT_TRUE(Buf.finishStream());
  return {Mem.bytes().begin(), Mem.bytes().end()};
}

} // namespace

TEST(TypedDecode, NineWorkloadsExactAndSampled) {
  for (const auto &B : benchmarks::buildAll())
    for (std::uint64_t SampleBytes : {std::uint64_t(0), DefaultSampleBytes}) {
      std::vector<std::byte> Framed = recordInMemory(B, SampleBytes);
      std::string Tag = B.Name + (SampleBytes ? "/sampled" : "/exact");
      DecodeOutcome T = frameDecode(B.Prog, Framed, DefaultWireFormat, true);
      EXPECT_TRUE(T.Fed && T.AtBoundary) << Tag << ": " << T.Error;
      EXPECT_GT(T.Events, 0u) << Tag;
      expectSameOutcome(T,
                        frameDecode(B.Prog, Framed, DefaultWireFormat, false),
                        Tag);
    }
}

TEST(TypedDecode, CommittedV4V5V6Fixtures) {
  benchmarks::BenchmarkProgram B = benchmarks::buildJuru();
  for (const char *Name : {"juru_v4.jdev", "juru_v5.jdev", "juru_v6.jdev",
                           "juru_v7.jdev", "juru_v7_sampled.jdev"}) {
    std::vector<std::byte> File =
        readFileBytes(std::string(JDRAG_TEST_DATA_DIR) + "/" + Name);
    StreamHeaderInfo Info;
    std::string Err;
    ASSERT_TRUE(parseStreamHeader(File, Info, &Err)) << Name << ": " << Err;
    std::span<const std::byte> Framed =
        std::span<const std::byte>(File).subspan(
            streamHeaderBytes(Info.Format));
    DecodeOutcome T = replayDecode(B.Prog, Framed, Info.Format, true);
    EXPECT_TRUE(T.Fed) << Name << ": " << T.Error;
    EXPECT_FALSE(T.Log.empty()) << Name;
    expectSameOutcome(T, replayDecode(B.Prog, Framed, Info.Format, false),
                      Name);
    // FrameDecoder reads v8 only and refuses the fixture up front.
    DecodeOutcome Refused = frameDecode(B.Prog, Framed, Info.Format, true);
    EXPECT_FALSE(Refused.Fed) << Name;
    EXPECT_EQ(Refused.Error,
              "unsupported event stream: v" +
                  std::to_string(static_cast<unsigned>(Info.Format)) +
                  " is a legacy format; read it with replayFile or "
                  "replayBytes");
    EXPECT_EQ(Refused.Events, 0u);
  }
}

TEST(TypedDecode, HostileIdStreams) {
  ir::Program P = buildChurnProgram();
  for (std::uint64_t Hostile : HostileIdValues) {
    MemorySink Mem;
    EventBuffer Buf(Mem);
    writeHostileIdEvents(Buf, Hostile);
    ASSERT_TRUE(Buf.finishStream());
    expectFrameAgreement(P, Mem.bytes(), DefaultWireFormat,
                         "hostile id " + std::to_string(Hostile));
  }
  MemorySink Mem;
  EventBuffer Buf(Mem);
  writeWrappingIdEvents(Buf);
  ASSERT_TRUE(Buf.finishStream());
  expectFrameAgreement(P, Mem.bytes(), DefaultWireFormat, "wrapping ids");
}

// The FrameErrors trailers: both loops refuse each at the same record,
// with the same text, after the same records.
TEST(TypedDecode, HostileTrailers) {
  ir::Program P = buildChurnProgram();
  std::vector<EventRecord> Bad = {
      objectRecord(EventKind::Collect, 1000, 9, 500, 1, 400),
      objectRecord(EventKind::Survivor, 1000, 9, 500, 1, 600),
      objectRecord(EventKind::Collect, 1000, 9, 500),
      objectRecord(EventKind::Collect, 1000, 9, 500),
      objectRecord(EventKind::Collect, 1000, 9, 1500)};
  Bad[1].FirstUseBoundary = Bad[1].LastUseBoundary = 700;
  Bad[2].LastUseSite = 0;
  Bad[3].Flags = RecordIsArray;
  Bad[3].Sub = 5;
  for (std::size_t I = 0; I != Bad.size(); ++I) {
    std::vector<std::byte> Hdr;
    std::vector<std::byte> S = hostileRecordStream(Hdr, Bad[I]);
    DecodeOutcome T = frameDecode(P, S, DefaultWireFormat, true);
    EXPECT_FALSE(T.Fed);
    EXPECT_NE(T.Error.find("malformed event stream"), std::string::npos)
        << T.Error;
    expectSameOutcome(T, frameDecode(P, S, DefaultWireFormat, false),
                      "hostile trailer " + std::to_string(I));
  }
}

TEST(TypedDecode, CorruptionCorpusTruncationsAndBitFlips) {
  ir::Program P = buildChurnProgram();
  std::vector<std::byte> Stream = buildFramedStream();
  expectFrameAgreement(P, buildEveryKindStream(), DefaultWireFormat,
                       "every kind");
  for (std::size_t Cut = 0; Cut <= Stream.size(); ++Cut)
    expectFrameAgreement(P, std::span<const std::byte>(Stream).first(Cut),
                         DefaultWireFormat, "cut at " + std::to_string(Cut));
  for (std::size_t I = 0; I != Stream.size(); ++I)
    for (unsigned Bit : {0u, 7u}) {
      std::vector<std::byte> Mut = Stream;
      Mut[I] ^= std::byte(1u << Bit);
      expectFrameAgreement(P, Mut, DefaultWireFormat,
                           "flip at byte " + std::to_string(I) + " bit " +
                               std::to_string(Bit));
    }
}

// The frame CRC stops a flipped chunk before its records decode, so the
// sweep above reaches the record loop only with intact bodies. Here every
// bit of every chunk body is flipped and the body decoded directly, and
// every prefix of it too: each malformed-record and cut-off path of both
// loops, with both readers.
TEST(TypedDecode, DamagedChunkBodies) {
  ir::Program P = buildChurnProgram();
  std::vector<std::byte> Stream = buildEveryKindStream();
  std::size_t Off = 0;
  std::size_t Bodies = 0;
  while (Off < Stream.size()) {
    ChunkHeader H;
    std::memcpy(&H, Stream.data() + Off, sizeof(H));
    if (H.Magic != ChunkMagic)
      break; // the footer
    std::vector<std::byte> Body(
        Stream.begin() + static_cast<std::ptrdiff_t>(Off + sizeof(H)),
        Stream.begin() +
            static_cast<std::ptrdiff_t>(Off + sizeof(H) + H.PayloadBytes));
    Off += sizeof(H) + H.PayloadBytes;
    ++Bodies;
    std::string Chunk = "chunk " + std::to_string(H.Seq);
    for (std::size_t Cut = 0; Cut <= Body.size(); ++Cut)
      expectSameOutcome(
          bodyDecode(P, std::span<const std::byte>(Body).first(Cut), true),
          bodyDecode(P, std::span<const std::byte>(Body).first(Cut), false),
          Chunk + " cut at " + std::to_string(Cut));
    for (std::size_t I = 0; I != Body.size(); ++I)
      for (unsigned Bit = 0; Bit != 8; ++Bit) {
        std::vector<std::byte> Mut = Body;
        Mut[I] ^= std::byte(1u << Bit);
        expectSameOutcome(bodyDecode(P, Mut, true), bodyDecode(P, Mut, false),
                          Chunk + " flip at byte " + std::to_string(I) +
                              " bit " + std::to_string(Bit));
      }
  }
  EXPECT_GE(Bodies, 2u);
}
