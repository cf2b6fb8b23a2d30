//===- tests/test_compression.cpp - .jdev v6 chunk compression ------------===//
//
// Part of jdrag test suite.
//
// Differential coverage for transparent chunk compression: a compressed
// v6 recording must carry exactly the information of its uncompressed
// twin -- byte-identical decompressed payloads, field-identical replay
// profiles (sequential and sharded), a footer that indexes the
// *compressed* frames, salvage that recovers a compressed prefix and
// gives garbled blocks the bad-compression verdict, and `--compress=off`
// output byte-identical to a pre-v6 recording. The codec itself is
// fuzzed in test_lz.cpp; this file is about the pipeline around it.
//
//===----------------------------------------------------------------------===//

#include "profiler/DragProfiler.h"
#include "profiler/EventStream.h"
#include "profiler/ParallelReplay.h"
#include "profiler/StreamSalvage.h"
#include "support/Crc32c.h"
#include "vm/VirtualMachine.h"

#include "ShardedReplay.h"
#include "VMTestUtils.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace jdrag;
using namespace jdrag::profiler;
using namespace jdrag::testutil;

namespace {

std::string tempPath(const char *Name) {
  return std::string("/tmp/jdrag_compression_") + std::to_string(getpid()) +
         "_" + Name;
}

std::vector<char> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::vector<char>(std::istreambuf_iterator<char>(In),
                           std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path, const std::vector<char> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

/// Alloc/use churn, enough traffic for several chunks of repetitive
/// (i.e. compressible) event bytes.
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

/// Records one churn run to \p Path; small chunks so the file holds
/// many frames. \p Compress drives the FileEventSink option exactly as
/// `jdrag record` does (format upgraded through effectiveFormat).
void recordRun(const ir::Program &P, const std::string &Path, bool Compress,
               std::size_t ChunkBytes = 2048) {
  FileEventSink Sink;
  FileEventSink::Options FO;
  FO.Compress = Compress;
  FO.Format = effectiveFormat(DefaultWireFormat, FO.Sampling, Compress);
  ASSERT_TRUE(Sink.open(Path, FO));
  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.Sink = &Sink;
  Opts.EventFormat = DefaultWireFormat;
  Opts.EventChunkBytes = ChunkBytes;
  vm::VirtualMachine VM(P, Opts);
  VM.setInputs({400});
  std::string Err;
  ASSERT_EQ(VM.run(&Err), vm::Interpreter::Status::Ok) << Err;
  ASSERT_TRUE(VM.streamIntact());
}

/// Walks the chunk frames of a `.jdev` file, returning the
/// (decompressed, for flagged v6 frames) data-chunk payloads in order.
/// \p CompressedChunks counts the flagged frames seen.
std::vector<std::vector<std::byte>>
chunkPayloads(const std::string &Path, std::size_t &CompressedChunks) {
  std::vector<char> Raw = readFileBytes(Path);
  EXPECT_GE(Raw.size(), 12u) << Path;
  std::uint32_t Version = 0;
  std::memcpy(&Version, Raw.data() + 8, sizeof(Version));
  std::size_t Off = streamHeaderBytes(static_cast<WireFormat>(Version));
  std::vector<std::vector<std::byte>> Payloads;
  std::vector<std::uint8_t> Inflate;
  CompressedChunks = 0;
  while (Off + sizeof(ChunkHeader) <= Raw.size()) {
    ChunkHeader H;
    std::memcpy(&H, Raw.data() + Off, sizeof(H));
    std::uint32_t WireLen =
        Version >= 6 ? chunkWireBytes(H.PayloadBytes) : H.PayloadBytes;
    bool Footer = H.Magic == FooterMagic;
    std::size_t Frame = sizeof(H) + WireLen + (Footer ? 8 : 0);
    EXPECT_LE(Off + Frame, Raw.size()) << Path << " frame at " << Off;
    if (Off + Frame > Raw.size())
      break;
    if (!Footer) {
      EXPECT_EQ(H.Magic, ChunkMagic) << Path << " frame at " << Off;
      const auto *P = reinterpret_cast<const std::byte *>(Raw.data()) + Off +
                      sizeof(H);
      std::span<const std::byte> Body(P, WireLen);
      if (Version >= 6 && chunkCompressed(H.PayloadBytes)) {
        ++CompressedChunks;
        EXPECT_TRUE(chunkPayloadBytes(H, P, Inflate, Body))
            << Path << " frame at " << Off;
      }
      EXPECT_EQ(support::crc32c(Body.data(), Body.size()), H.Crc)
          << Path << " frame at " << Off;
      Payloads.emplace_back(Body.begin(), Body.end());
    }
    Off += Frame;
  }
  EXPECT_EQ(Off, Raw.size()) << Path << ": trailing bytes";
  return Payloads;
}

/// Serializes both logs and compares bytes. \p IgnoreCompressed clears
/// the provenance flag first (it legitimately differs between a
/// compressed recording's replay and its uncompressed twin's).
void expectBitIdentical(ProfileLog A, ProfileLog B, bool IgnoreCompressed) {
  if (IgnoreCompressed)
    A.Compressed = B.Compressed = false;
  std::string PathA = tempPath("cmp_a.bin"), PathB = tempPath("cmp_b.bin");
  ASSERT_TRUE(A.writeFile(PathA));
  ASSERT_TRUE(B.writeFile(PathB));
  EXPECT_EQ(readFileBytes(PathA), readFileBytes(PathB));
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

TEST(CompressedStream, V6FileIsSmallerAndPayloadsAreBitIdentical) {
  ir::Program P = buildChurnProgram();
  std::string Comp = tempPath("churn_v6.jdev");
  std::string Plain = tempPath("churn_raw.jdev");
  recordRun(P, Comp, /*Compress=*/true);
  recordRun(P, Plain, /*Compress=*/false);

  // Both are v7; Compressed says whether any chunk carried the flag.
  class Discard : public EventConsumer {
    void onSite(SiteId, std::span<const SiteFrame>) override {}
    void onEvent(const EventRecord &) override {}
  } Null;
  StreamHeaderInfo CI, PI;
  std::string Err;
  ASSERT_TRUE(replayFile(Comp, Null, &Err, &CI)) << Err;
  ASSERT_TRUE(replayFile(Plain, Null, &Err, &PI)) << Err;
  EXPECT_EQ(CI.Format, WireFormat::V8);
  EXPECT_TRUE(CI.Compressed);
  EXPECT_EQ(PI.Format, DefaultWireFormat);
  EXPECT_FALSE(PI.Compressed);

  EXPECT_LT(readFileBytes(Comp).size(), readFileBytes(Plain).size());

  // The differential core: decompressed v6 payloads == raw payloads,
  // chunk for chunk, byte for byte.
  std::size_t CompChunks = 0, PlainChunks = 0;
  auto CP = chunkPayloads(Comp, CompChunks);
  auto PP = chunkPayloads(Plain, PlainChunks);
  EXPECT_GT(CompChunks, 0u) << "nothing actually compressed";
  EXPECT_EQ(PlainChunks, 0u);
  EXPECT_EQ(CP, PP);

  std::remove(Comp.c_str());
  std::remove(Plain.c_str());
}

TEST(CompressedStream, ReplayMatchesUncompressedTwinAndParallelSelf) {
  ir::Program P = buildChurnProgram();
  std::string Comp = tempPath("replay_v6.jdev");
  std::string Plain = tempPath("replay_raw.jdev");
  recordRun(P, Comp, /*Compress=*/true);
  recordRun(P, Plain, /*Compress=*/false);

  ProfileLog FromComp, FromPlain, FromCompPar;
  std::string Err;
  ASSERT_TRUE(replayProfile(Comp, P, {}, FromComp, &Err)) << Err;
  ASSERT_TRUE(replayProfile(Plain, P, {}, FromPlain, &Err)) << Err;
  unsigned Shards = 0;
  ASSERT_TRUE(replaySharded(Comp, P, {}, 4, FromCompPar, &Err, &Shards))
      << Err;
  EXPECT_GE(Shards, 2u);

  // Provenance: the v6 replay knows it came from a compressed stream.
  EXPECT_TRUE(FromComp.Compressed);
  EXPECT_FALSE(FromPlain.Compressed);
  EXPECT_TRUE(FromCompPar.Compressed);

  expectBitIdentical(FromComp, FromPlain, /*IgnoreCompressed=*/true);
  expectSameProfile(FromComp, FromCompPar);

  std::remove(Comp.c_str());
  std::remove(Plain.c_str());
}

TEST(CompressedStream, CompressOffIsByteIdenticalToDefaultRecording) {
  // `--compress=off` must leave the writer exactly as it was pre-v6:
  // the same bytes a plain default-format recording produces.
  ir::Program P = buildChurnProgram();
  std::string Off = tempPath("off.jdev");
  std::string Default = tempPath("default.jdev");
  recordRun(P, Off, /*Compress=*/false);
  {
    FileEventSink Sink;
    ASSERT_TRUE(Sink.open(Default, FileEventSink::Options()));
    vm::VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.EventFormat = DefaultWireFormat;
    Opts.EventChunkBytes = 2048;
    vm::VirtualMachine VM(P, Opts);
    VM.setInputs({400});
    std::string Err;
    ASSERT_EQ(VM.run(&Err), vm::Interpreter::Status::Ok) << Err;
  }
  EXPECT_EQ(readFileBytes(Off), readFileBytes(Default));
  std::remove(Off.c_str());
  std::remove(Default.c_str());
}

TEST(CompressedStream, FooterIndexesTheCompressedFrames) {
  ir::Program P = buildChurnProgram();
  std::string Comp = tempPath("footer_v6.jdev");
  recordRun(P, Comp, /*Compress=*/true);

  std::vector<char> Raw = readFileBytes(Comp);
  std::size_t Hdr = streamHeaderBytes(WireFormat::V6);
  std::span<const std::byte> Stream(
      reinterpret_cast<const std::byte *>(Raw.data()) + Hdr,
      Raw.size() - Hdr);

  ChunkIndex Index;
  ASSERT_TRUE(readChunkIndexFooter(Stream, Index));
  ASSERT_FALSE(Index.Entries.empty());

  // Every entry must point at a real frame: header at Offset, matching
  // Seq, the *on-wire* PayloadBytes field (flag included), and the CRC
  // of the uncompressed payload.
  std::size_t CompressedEntries = 0;
  for (const ChunkIndexEntry &En : Index.Entries) {
    ASSERT_LE(En.Offset + sizeof(ChunkHeader), Stream.size());
    ChunkHeader H;
    std::memcpy(&H, Stream.data() + En.Offset, sizeof(H));
    EXPECT_EQ(H.Magic, ChunkMagic);
    EXPECT_EQ(H.Seq, En.Seq);
    EXPECT_EQ(H.PayloadBytes, En.PayloadBytes);
    EXPECT_EQ(H.Crc, En.Crc);
    if (chunkCompressed(En.PayloadBytes))
      ++CompressedEntries;
  }
  EXPECT_GT(CompressedEntries, 0u);
  std::remove(Comp.c_str());
}

TEST(CompressedStream, GarbledPayloadGetsBadCompressionVerdict) {
  ir::Program P = buildChurnProgram();
  std::string Comp = tempPath("garble_v6.jdev");
  recordRun(P, Comp, /*Compress=*/true);

  // Find the second compressed frame and stomp its payload's leading
  // uvarint with 0xFF continuation bytes: an absurd declared length the
  // bounded decoder must reject -- without touching header or CRC.
  std::vector<char> Raw = readFileBytes(Comp);
  std::size_t Off = streamHeaderBytes(WireFormat::V6);
  std::size_t Target = 0, Seen = 0;
  while (Off + sizeof(ChunkHeader) <= Raw.size()) {
    ChunkHeader H;
    std::memcpy(&H, Raw.data() + Off, sizeof(H));
    if (H.Magic != ChunkMagic)
      break;
    std::uint32_t WireLen = chunkWireBytes(H.PayloadBytes);
    if (chunkCompressed(H.PayloadBytes) && ++Seen == 2) {
      Target = Off;
      for (std::size_t I = 0; I != std::min<std::size_t>(8, WireLen); ++I)
        Raw[Off + sizeof(H) + I] = static_cast<char>(0xFF);
      break;
    }
    Off += sizeof(H) + WireLen;
  }
  ASSERT_NE(Target, 0u) << "recording has fewer than two compressed chunks";
  std::string Bad = tempPath("garble_bad.jdev");
  writeFileBytes(Bad, Raw);

  SalvageReport Rep = scanEventFile(Bad, nullptr);
  ASSERT_TRUE(Rep.readable()) << Rep.FileError;
  EXPECT_TRUE(Rep.Compressed);
  ASSERT_NE(Rep.FirstDamaged, SalvageReport::npos);
  EXPECT_EQ(Rep.Chunks[Rep.FirstDamaged].Status,
            ChunkStatus::BadCompression);
  EXPECT_EQ(Rep.Chunks[Rep.FirstDamaged].Offset, Target);
  EXPECT_GT(Rep.EventsRecovered, 0u) << "the clean prefix was lost";

  // Salvage keeps the prefix *compressed* and the result scans clean.
  std::string Fixed = tempPath("garble_fixed.jdev");
  std::string Err;
  ASSERT_TRUE(salvageEventFile(Bad, Fixed, nullptr, &Err)) << Err;
  SalvageReport FixedRep = scanEventFile(Fixed, nullptr);
  EXPECT_TRUE(FixedRep.clean()) << FixedRep.summary(Fixed);
  EXPECT_TRUE(FixedRep.Compressed);
  EXPECT_EQ(FixedRep.EventsRecovered, Rep.EventsRecovered);
  EXPECT_LT(FixedRep.WirePayloadBytes, FixedRep.RawPayloadBytes);

  std::remove(Comp.c_str());
  std::remove(Bad.c_str());
  std::remove(Fixed.c_str());
}

TEST(CompressedStream, TruncatedCompressedFrameSalvagesToCleanPrefix) {
  ir::Program P = buildChurnProgram();
  std::string Comp = tempPath("trunc_v6.jdev");
  recordRun(P, Comp, /*Compress=*/true);

  // Cut mid-payload of the last compressed frame.
  std::vector<char> Raw = readFileBytes(Comp);
  std::size_t Off = streamHeaderBytes(WireFormat::V6);
  std::size_t Cut = 0;
  while (Off + sizeof(ChunkHeader) <= Raw.size()) {
    ChunkHeader H;
    std::memcpy(&H, Raw.data() + Off, sizeof(H));
    if (H.Magic != ChunkMagic)
      break;
    std::uint32_t WireLen = chunkWireBytes(H.PayloadBytes);
    if (chunkCompressed(H.PayloadBytes))
      Cut = Off + sizeof(H) + WireLen / 2;
    Off += sizeof(H) + WireLen;
  }
  ASSERT_NE(Cut, 0u);
  Raw.resize(Cut);
  std::string Bad = tempPath("trunc_bad.jdev");
  writeFileBytes(Bad, Raw);

  SalvageReport Rep = scanEventFile(Bad, nullptr);
  ASSERT_NE(Rep.FirstDamaged, SalvageReport::npos);
  EXPECT_EQ(Rep.Chunks[Rep.FirstDamaged].Status,
            ChunkStatus::TruncatedPayload);
  EXPECT_GT(Rep.EventsRecovered, 0u);

  std::string Fixed = tempPath("trunc_fixed.jdev");
  std::string Err;
  ASSERT_TRUE(salvageEventFile(Bad, Fixed, nullptr, &Err)) << Err;
  SalvageReport FixedRep = scanEventFile(Fixed, nullptr);
  EXPECT_TRUE(FixedRep.clean()) << FixedRep.summary(Fixed);
  EXPECT_TRUE(FixedRep.Compressed);
  EXPECT_EQ(FixedRep.EventsRecovered, Rep.EventsRecovered);

  std::remove(Comp.c_str());
  std::remove(Bad.c_str());
  std::remove(Fixed.c_str());
}

TEST(CompressedStream, ProfileLogV07RoundTripsTheCompressedFlag) {
  ProfileLog Log;
  Log.Compressed = true;
  std::string Path = tempPath("log_v07.bin");
  ASSERT_TRUE(Log.writeFile(Path));
  ProfileLog Back;
  ASSERT_TRUE(ProfileLog::readFile(Path, Back));
  EXPECT_TRUE(Back.Compressed);

  Log.Compressed = false;
  ASSERT_TRUE(Log.writeFile(Path));
  ASSERT_TRUE(ProfileLog::readFile(Path, Back));
  EXPECT_FALSE(Back.Compressed);
  std::remove(Path.c_str());
}

} // namespace
