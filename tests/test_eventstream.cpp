//===- tests/test_eventstream.cpp - Event-stream pipeline tests -----------===//
//
// Part of jdrag test suite.
//
// Covers the binary instrumentation event stream end to end: wire-level
// encode/decode, chunk-boundary reassembly, `.jdev` record/replay
// equality against attached profiling (the pipeline's core guarantee),
// zero-event edge cases, and corruption/truncation rejection.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "profiler/DragProfiler.h"
#include "profiler/EventStream.h"
#include "profiler/LegacyStream.h"
#include "profiler/ParallelReplay.h"
#include "profiler/StreamSalvage.h"
#include "support/Crc32c.h"
#include "vm/Events.h"
#include "vm/VirtualMachine.h"

#include "ShardedReplay.h"
#include "VMTestUtils.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

using namespace jdrag;
using namespace jdrag::profiler;
using namespace jdrag::testutil;

namespace {

std::string tempPath(const char *Name) {
  // Pid-unique: ctest runs each test in its own process, possibly in
  // parallel, and tests sharing a fixed path (e.g. the two jess
  // replay tests via expectBitIdentical's cmp files) would clobber
  // each other.
  return std::string("/tmp/jdrag_eventstream_") + std::to_string(getpid()) +
         "_" + Name;
}

std::vector<char> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::vector<char>(std::istreambuf_iterator<char>(In),
                           std::istreambuf_iterator<char>());
}

/// A consumer that records everything it sees, in order.
class CollectingConsumer : public EventConsumer {
public:
  struct Site {
    SiteId Id;
    std::vector<SiteFrame> Frames;
  };
  std::vector<Site> Sites;
  std::vector<EventRecord> Events;

  void onSite(SiteId Id, std::span<const SiteFrame> Frames) override {
    Sites.push_back({Id, {Frames.begin(), Frames.end()}});
  }
  void onEvent(const EventRecord &E) override { Events.push_back(E); }
};

/// An alloc-and-use workload: builds N small objects, touches half of
/// them, lets the rest drag. Enough traffic to cross chunk boundaries
/// and produce GC activity with a small deep-GC interval.
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
  M.aload(O).iload(I).putfield(V); // use every other object
  M.aload(O).getfield(V).pop();
  M.bind(Skip);
  M.iconst(9).newarray(ir::ArrayKind::Int).pop(); // dragging garbage
  M.iload(I).iconst(1).iadd().istore(I);
  M.goto_(Loop);
  M.bind(Done);
  M.iconst(0).invokestatic(T.Emit);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  return T.finishVerified();
}

/// main { ret } -- no allocations, no uses.
ir::Program buildEmptyProgram() {
  using ir::ValueKind;
  TestProgramBuilder T;
  ir::ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  ir::MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  return T.finishVerified();
}

/// Runs \p P live-attached and returns the log. \p ChunkBytes = 0 keeps
/// the default chunking.
ProfileLog liveRun(const ir::Program &P, const std::vector<std::int64_t> &In,
                   std::size_t ChunkBytes = 0) {
  DragProfiler Prof(P);
  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Prof.attachTo(Opts);
  Opts.EventChunkBytes = ChunkBytes;
  vm::VirtualMachine VM(P, Opts);
  VM.setInputs(In);
  std::string Err;
  EXPECT_EQ(VM.run(&Err), vm::Interpreter::Status::Ok) << Err;
  return Prof.takeLog();
}

/// Runs \p P with a FileEventSink recording to \p Path.
void recordRun(const ir::Program &P, const std::vector<std::int64_t> &In,
               const std::string &Path, bool Async = false) {
  FileEventSink Sink;
  ASSERT_TRUE(Sink.open(Path));
  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.Sink = &Sink;
  Opts.AsyncEvents = Async;
  vm::VirtualMachine VM(P, Opts);
  VM.setInputs(In);
  std::string Err;
  ASSERT_EQ(VM.run(&Err), vm::Interpreter::Status::Ok) << Err;
  ASSERT_TRUE(VM.streamIntact());
  ASSERT_GT(Sink.bytesWritten(), 0u);
}

/// Serializes both logs and compares the bytes -- the strongest
/// equality we can ask for (records, sites, GC samples, end time).
void expectBitIdentical(const ProfileLog &A, const ProfileLog &B) {
  std::string PathA = tempPath("cmp_a.bin"), PathB = tempPath("cmp_b.bin");
  ASSERT_TRUE(A.writeFile(PathA));
  ASSERT_TRUE(B.writeFile(PathB));
  EXPECT_EQ(readFileBytes(PathA), readFileBytes(PathB));
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

//===----------------------------------------------------------------------===//
// Wire level
//===----------------------------------------------------------------------===//

TEST(EventWire, KindNamesComplete) {
  std::set<std::string> Seen;
  for (std::size_t I = 0; I != NumEventKinds; ++I) {
    const char *Name = eventKindName(static_cast<EventKind>(I));
    ASSERT_NE(Name, nullptr);
    EXPECT_STRNE(Name, "?") << "kind " << I;
    Seen.insert(Name);
  }
  EXPECT_EQ(Seen.size(), NumEventKinds) << "duplicate kind names";
}

TEST(EventWire, UseKindNamesComplete) {
  std::set<std::string> Seen;
  for (std::size_t I = 0; I != vm::NumUseKinds; ++I) {
    const char *Name = vm::useKindName(static_cast<vm::UseKind>(I));
    ASSERT_NE(Name, nullptr);
    EXPECT_STRNE(Name, "?") << "kind " << I;
    Seen.insert(Name);
  }
  EXPECT_EQ(Seen.size(), vm::NumUseKinds) << "duplicate use-kind names";
  EXPECT_STREQ(vm::useKindName(vm::UseKind::Throw), "throw");
  EXPECT_STREQ(vm::useKindName(vm::UseKind::NativeDeref), "native");
  // Out-of-range values must not index off the table.
  EXPECT_STREQ(vm::useKindName(static_cast<vm::UseKind>(250)), "?");
}

TEST(EventWire, BufferDecodeRoundTrip) {
  MemorySink Mem;
  EventBuffer Buf(Mem);

  std::vector<SiteFrame> Frames = {{ir::MethodId(3), 7, 42},
                                   {ir::MethodId(1), 2, 11}};
  Buf.writeSite(SiteId(0), Frames);
  // An array object's record with every trailer field set, then an
  // instance's that was never used.
  EventRecord Arr;
  Arr.Kind = static_cast<std::uint8_t>(EventKind::Collect);
  Arr.Time = 4096;
  Arr.Id = 5;
  Arr.Arg0 = 24; // bytes
  Arr.Arg1 = ir::ClassId().Index;
  Arr.Site = 0;
  Arr.Sub = static_cast<std::uint8_t>(ir::ArrayKind::Double);
  Arr.Flags = RecordIsArray | RecordUsedOutsideInit;
  Arr.AllocTime = 128;
  Arr.FirstUseTime = 160;
  Arr.FirstUseBoundary = 100;
  Arr.LastUseTime = 3000;
  Arr.LastUseBoundary = 2048;
  Arr.LastUseSite = 0;
  Arr.UseCount = 7;
  Buf.writeEvent(Arr);
  EventRecord Unused;
  Unused.Kind = static_cast<std::uint8_t>(EventKind::Survivor);
  Unused.Time = 5000;
  Unused.Id = 6;
  Unused.Arg0 = 16;
  Unused.Arg1 = 9; // class index
  Unused.AllocTime = 4100;
  Unused.FirstUseTime = Unused.FirstUseBoundary = 4100;
  Unused.LastUseTime = Unused.LastUseBoundary = 4100;
  Buf.writeEvent(Unused);
  ASSERT_TRUE(Buf.flush());
  ASSERT_TRUE(Buf.ok());
  EXPECT_EQ(Buf.eventsWritten(), 3u); // DefineSite counts as an event

  CollectingConsumer C;
  std::string Err;
  ASSERT_TRUE(replayBytes(Mem.bytes(), C, &Err)) << Err;
  ASSERT_EQ(C.Sites.size(), 1u);
  EXPECT_EQ(C.Sites[0].Id, SiteId(0));
  ASSERT_EQ(C.Sites[0].Frames.size(), 2u);
  EXPECT_EQ(C.Sites[0].Frames[0].Method, ir::MethodId(3));
  EXPECT_EQ(C.Sites[0].Frames[0].Pc, 7u);
  EXPECT_EQ(C.Sites[0].Frames[1].Line, 11u);
  ASSERT_EQ(C.Events.size(), 2u);
  EXPECT_EQ(std::memcmp(&C.Events[0], &Arr, sizeof(Arr)), 0);
  EXPECT_EQ(std::memcmp(&C.Events[1], &Unused, sizeof(Unused)), 0);
}

TEST(EventWire, ChunkingDoesNotChangeTheEvents) {
  // The same records through a 7-byte chunk buffer (every record
  // straddles several chunk payloads, and each payload carries its own
  // frame header) must decode to the identical record sequence.
  auto Emit = [](EventBuffer &Buf) {
    std::vector<SiteFrame> Frames = {{ir::MethodId(2), 1, 5}};
    Buf.writeSite(SiteId(0), Frames);
    for (std::uint32_t I = 0; I != 25; ++I) {
      EventRecord E;
      E.Time = 100 + I;
      E.Id = I;
      E.Site = 0;
      E.Kind = static_cast<std::uint8_t>(EventKind::Collect);
      E.AllocTime = E.FirstUseTime = E.FirstUseBoundary = E.LastUseTime =
          E.LastUseBoundary = 90 + I;
      Buf.writeEvent(E);
    }
    ASSERT_TRUE(Buf.flush());
  };
  MemorySink Big, Tiny;
  {
    EventBuffer Buf(Big);
    Emit(Buf);
  }
  {
    EventBuffer Buf(Tiny, /*ChunkBytes=*/7);
    Emit(Buf);
  }
  // Framing differs (one chunk vs dozens), so compare decoded events.
  CollectingConsumer FromBig, FromTiny;
  std::string Err;
  ASSERT_TRUE(replayBytes(Big.bytes(), FromBig, &Err)) << Err;
  ASSERT_TRUE(replayBytes(Tiny.bytes(), FromTiny, &Err)) << Err;
  ASSERT_EQ(FromBig.Sites.size(), FromTiny.Sites.size());
  ASSERT_EQ(FromBig.Events.size(), 25u);
  ASSERT_EQ(FromTiny.Events.size(), 25u);
  EXPECT_EQ(std::memcmp(FromBig.Events.data(), FromTiny.Events.data(),
                        FromBig.Events.size() * sizeof(EventRecord)),
            0);
  EXPECT_GT(Tiny.bytes().size(), Big.bytes().size())
      << "tiny chunks should pay more framing overhead";
}

TEST(EventWire, DecoderReassemblesByteAtATime) {
  MemorySink Mem;
  EventBuffer Buf(Mem);
  std::vector<SiteFrame> Frames = {{ir::MethodId(4), 0, 1},
                                   {ir::MethodId(5), 3, 2},
                                   {ir::MethodId(6), 6, 3}};
  Buf.writeSite(SiteId(0), Frames);
  for (std::uint32_t I = 0; I != 5; ++I) {
    EventRecord E;
    E.Time = I;
    E.Id = I;
    E.Kind = static_cast<std::uint8_t>(EventKind::Collect);
    Buf.writeEvent(E);
  }
  ASSERT_TRUE(Buf.flush());

  // The framed stream reassembles from single-byte feeds: chunk headers
  // and payloads both straddle feed boundaries.
  CollectingConsumer C;
  FrameDecoder D(C);
  std::span<const std::byte> Bytes = Mem.bytes();
  for (std::size_t I = 0; I != Bytes.size(); ++I)
    ASSERT_TRUE(D.feed(&Bytes[I], 1)) << D.error();
  EXPECT_TRUE(D.atRecordBoundary());
  EXPECT_EQ(D.eventsDecoded(), 6u);
  EXPECT_EQ(D.chunksDecoded(), 1u);
  ASSERT_EQ(C.Sites.size(), 1u);
  EXPECT_EQ(C.Sites[0].Frames.size(), 3u);
  EXPECT_EQ(C.Events.size(), 5u);
}

/// v2's fixed 40-byte record, which only LegacyStream reads: time, id,
/// two arguments, site, kind, sub, flags and a reserved byte.
struct V2Record {
  std::uint64_t Time = 0, Id = 0, Arg0 = 0, Arg1 = 0;
  std::uint32_t Site = 0;
  std::uint8_t Kind = 0, Sub = 0, Flags = 0, Reserved = 0;
};
static_assert(sizeof(V2Record) == 40);

TEST(EventWire, DecoderRejectsUnknownKind) {
  V2Record E;
  E.Kind = 200;
  CollectingConsumer C;
  LegacyRecordLayer L(WireFormat::V2, C);
  ASSERT_TRUE(L.chunk({reinterpret_cast<const std::byte *>(&E), sizeof(E)}));
  LegacyRecords R = L.finish();
  EXPECT_TRUE(R.Malformed);
  EXPECT_NE(R.Error.find("kind"), std::string::npos) << R.Error;
  EXPECT_EQ(R.Events, 0u);
}

TEST(EventWire, DecoderRejectsOversizedFrameCount) {
  V2Record E;
  E.Kind = static_cast<std::uint8_t>(EventKind::DefineSite);
  E.Arg0 = MaxWireFrames + 1;
  CollectingConsumer C;
  LegacyRecordLayer L(WireFormat::V2, C);
  ASSERT_TRUE(L.chunk({reinterpret_cast<const std::byte *>(&E), sizeof(E)}));
  EXPECT_TRUE(L.finish().Malformed);
}

TEST(EventWire, V3DecoderRejectsSpareTagBits) {
  // v3 kind values all fit 3 bits, so unknown-kind detection moves to
  // the spare tag bits: any set spare bit must fail the decode.
  std::byte Tag{0xF8}; // DefineSite kind with all spare bits set
  CollectingConsumer C;
  StreamDecoder D(C);
  EXPECT_FALSE(D.decodeChunk(&Tag, 1));
  EXPECT_NE(D.error().find("spare tag bits"), std::string::npos) << D.error();
  EXPECT_FALSE(D.decodeChunk(&Tag, 1)); // sticky
}

TEST(EventWire, V3DecoderRejectsOversizedFrameCount) {
  // DefineSite tag, site id 0, frame count MaxWireFrames+1 as a varint.
  std::uint8_t Buf[8];
  std::size_t N = 0;
  Buf[N++] = static_cast<std::uint8_t>(EventKind::DefineSite);
  Buf[N++] = 0; // site id
  std::uint64_t Count = MaxWireFrames + 1;
  while (Count >= 0x80) {
    Buf[N++] = static_cast<std::uint8_t>(Count) | 0x80;
    Count >>= 7;
  }
  Buf[N++] = static_cast<std::uint8_t>(Count);
  CollectingConsumer C;
  StreamDecoder D(C);
  EXPECT_FALSE(D.decodeChunk(reinterpret_cast<const std::byte *>(Buf), N));
  EXPECT_NE(D.error().find("frames"), std::string::npos) << D.error();
}

TEST(EventWire, V3DecoderRejectsOverlongVarint) {
  // GCEnd record whose time delta is 11 continuation bytes: varints are
  // capped at 10 bytes, so this is malformed, not merely incomplete.
  std::uint8_t Buf[16];
  std::size_t N = 0;
  Buf[N++] = static_cast<std::uint8_t>(EventKind::GCEnd);
  for (int I = 0; I != 11; ++I)
    Buf[N++] = 0x80;
  CollectingConsumer C;
  StreamDecoder D(C);
  EXPECT_FALSE(D.decodeChunk(reinterpret_cast<const std::byte *>(Buf), N));
  EXPECT_NE(D.error().find("varint"), std::string::npos) << D.error();
}

/// Decodes one chunk body holding a valid Terminate record, then \p Bad,
/// then 128 bytes of padding, in the record loop of format \p F: v8's,
/// or v7's as LegacyStream runs it. The bad record starts more than 121
/// bytes (a tag and twelve 10-byte varints, the longest non-site record)
/// before the end of the body, so the decoder reads it with the
/// unchecked reader, not the bounded one the short-body tests above
/// reach. Returns the decode error; the Terminate must have been
/// delivered.
std::string fastPathError(std::initializer_list<std::uint8_t> Bad,
                          WireFormat F = WireFormat::V8) {
  std::vector<std::uint8_t> Body = {
      static_cast<std::uint8_t>(EventKind::Terminate), 0x0a}; // time 5
  Body.insert(Body.end(), Bad);
  Body.resize(Body.size() + 128, 0);
  std::span<const std::byte> Bytes(
      reinterpret_cast<const std::byte *>(Body.data()), Body.size());
  CollectingConsumer C;
  StreamDecoder D(C);
  LegacyRecordLayer L(F, C);
  bool Legacy = legacyFormat(F);
  EXPECT_FALSE(Legacy ? L.chunk(Bytes)
                      : D.decodeChunk(Bytes.data(), Bytes.size()));
  const StreamDecoder &R = Legacy ? L.records() : D;
  EXPECT_FALSE(R.recordCut());
  EXPECT_EQ(R.eventsDecoded(), 1u);
  EXPECT_EQ(R.bytesDecoded(), 2u);
  EXPECT_EQ(C.Events.size(), 1u);
  return R.error();
}

TEST(EventWire, FastReaderRejectsOverlongVarint) {
  // A GCEnd whose time delta is 11 continuation bytes.
  EXPECT_EQ(fastPathError({0x03, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                           0x80, 0x80, 0x80, 0x80}),
            "malformed event stream: bad varint in gc-end record");
  // The same on a v7 Use.
  EXPECT_EQ(fastPathError({0x02, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                           0x80, 0x80, 0x80, 0x80},
                          WireFormat::V7),
            "malformed event stream: bad varint in use record");
}

TEST(EventWire, FastReaderRejectsTenthByteOverOne) {
  // A GCEnd whose time delta's 10th byte carries more than bit 63.
  EXPECT_EQ(fastPathError({0x03, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                           0x80, 0x80, 0x02, 0x00, 0x00}),
            "malformed event stream: bad varint in gc-end record");
  EXPECT_EQ(fastPathError({0x02, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                           0x80, 0x80, 0x02, 0x00, 0x00},
                          WireFormat::V7),
            "malformed event stream: bad varint in use record");
}

TEST(EventWire, FastReaderRejectsSiteIdPastU32) {
  // A Collect at time 0, id 0, 16 bytes, class 0, whose biased alloc
  // site field is 2^32.
  EXPECT_EQ(
      fastPathError({0x05, 0x00, 0x00, 0x10, 0x01, 0x80, 0x80, 0x80, 0x80,
                     0x10}),
      "malformed event stream: bad varint in collect record");
  // A v7 Use at time 0, id 0, whose biased site field is 2^32, and the
  // same site field on a v7 Alloc.
  EXPECT_EQ(fastPathError({0x02, 0x00, 0x00, 0x80, 0x80, 0x80, 0x80, 0x10},
                          WireFormat::V7),
            "malformed event stream: bad varint in use record");
  EXPECT_EQ(fastPathError(
                {0x01, 0x00, 0x00, 0x10, 0x03, 0x80, 0x80, 0x80, 0x80, 0x10},
                WireFormat::V7),
            "malformed event stream: bad varint in alloc record");
}

TEST(EventWire, FastReaderRejectsUseKindSeven) {
  EXPECT_EQ(fastPathError({0x72, 0x00, 0x00, 0x01}, WireFormat::V7),
            "malformed event stream: unknown use kind 7 in use record");
}

TEST(EventWire, FastReaderRejectsSpareTagBits) {
  EXPECT_EQ(fastPathError({0x0b, 0x00, 0x00, 0x00}),
            "malformed event stream: spare tag bits set on gc-end record");
  EXPECT_EQ(fastPathError({0x0c, 0x00}),
            "malformed event stream: spare tag bits set on deep-gc-end "
            "record");
  EXPECT_EQ(fastPathError({0x41, 0x00, 0x00, 0x10, 0x03, 0x01},
                          WireFormat::V7),
            "malformed event stream: spare tag bits set on alloc record");
  EXPECT_EQ(fastPathError({0x82, 0x00, 0x00, 0x01}, WireFormat::V7),
            "malformed event stream: spare tag bits set on use record");
  EXPECT_EQ(fastPathError({0x0d, 0x00, 0x00}, WireFormat::V7),
            "malformed event stream: spare tag bits set on collect record");
}

// A v8 Collect/Survivor record carries its whole trailer, and the record
// loop judges the trailer once its fields read whole. Each record below
// is a Collect at time 100 of object 1 (16 bytes, class 0, alloc site
// 0) with one hostile field; its alloc time is 40 and its one use (at
// site 0, outside init) at 60 under boundary 20, unless that is the
// field in question.
TEST(EventWire, FastReaderRejectsHostileTrailers) {
  // Tag: Collect | used outside init; then time 100, id 1, bytes 16,
  // class 0, alloc site 0 (each biased by +1 where the format says so).
  auto Collect = [](std::uint8_t Tag, std::int64_t Alloc, std::uint8_t Uses,
                    std::uint8_t Site, std::int64_t Last,
                    std::int64_t LastBoundary) {
    std::vector<std::uint8_t> R = {Tag, 0xc8, 0x01, 0x02, 0x10, 0x01, 0x01};
    auto Svar = [&R](std::int64_t V) {
      std::uint64_t U = (static_cast<std::uint64_t>(V) << 1) ^
                        static_cast<std::uint64_t>(V >> 63);
      do {
        R.push_back(static_cast<std::uint8_t>((U & 0x7f) | (U > 0x7f ? 0x80 : 0)));
        U >>= 7;
      } while (U);
    };
    Svar(Alloc);
    R.push_back(Uses);
    R.push_back(Site);
    if (Uses) {
      Svar(Last);
      Svar(LastBoundary);
    }
    if (Tag & 0x80) {
      Svar(Last);
      R.push_back(0x00); // the same boundary again
    }
    return R;
  };
  auto Error = [](const std::vector<std::uint8_t> &R) {
    std::vector<std::uint8_t> Body = {
        static_cast<std::uint8_t>(EventKind::Terminate), 0x0a};
    Body.insert(Body.end(), R.begin(), R.end());
    Body.resize(Body.size() + 128, 0);
    CollectingConsumer C;
    StreamDecoder D(C);
    EXPECT_FALSE(D.decodeChunk(
        reinterpret_cast<const std::byte *>(Body.data()), Body.size()));
    EXPECT_EQ(C.Events.size(), 1u);
    return D.error();
  };
  // The well-formed record decodes.
  {
    std::vector<std::uint8_t> Body = {
        static_cast<std::uint8_t>(EventKind::Terminate), 0x0a};
    std::vector<std::uint8_t> R = Collect(0x85, 40, 1, 1, 20, 20);
    Body.insert(Body.end(), R.begin(), R.end());
    CollectingConsumer C;
    StreamDecoder D(C);
    ASSERT_TRUE(D.decodeChunk(reinterpret_cast<const std::byte *>(Body.data()),
                              Body.size()))
        << D.error();
    ASSERT_EQ(C.Events.size(), 2u);
    EXPECT_EQ(C.Events[1].AllocTime, 40u);
    EXPECT_EQ(C.Events[1].LastUseTime, 60u);
    EXPECT_EQ(C.Events[1].LastUseBoundary, 20u);
    EXPECT_EQ(C.Events[1].FirstUseTime, 60u);
    EXPECT_EQ(C.Events[1].FirstUseBoundary, 20u);
  }
  EXPECT_EQ(Error(Collect(0x85, 40, 1, 1, -10, 20)),
            "malformed event stream: use time before the alloc time in "
            "collect record");
  EXPECT_EQ(Error(Collect(0x85, 40, 1, 1, 20, 70)),
            "malformed event stream: deep-GC boundary after its use in "
            "collect record");
  EXPECT_EQ(Error(Collect(0x05, 40, 0, 1, 0, 0)),
            "malformed event stream: last use on an unused object in "
            "collect record");
  EXPECT_EQ(Error(Collect(0xcd, 40, 1, 1, 20, 20)),
            "malformed event stream: array kind out of range in collect "
            "record");
  EXPECT_EQ(Error(Collect(0x85, 110, 1, 1, 20, 20)),
            "malformed event stream: alloc time after the record's time in "
            "collect record");
  EXPECT_EQ(Error(Collect(0x85, 40, 1, 1, 70, 20)),
            "malformed event stream: use time after the record's time in "
            "collect record");
  // Two uses, the first outside init at 60: after a last use at 50,
  // then before a last use at 70 but under a later boundary (15 after
  // 10).
  auto TwoUses = [&](std::int64_t Last, std::int64_t LastBoundary,
                     std::int64_t FirstBoundaryDelta) {
    std::vector<std::uint8_t> R = Collect(0x05, 40, 2, 1, Last, LastBoundary);
    R[0] = 0x85;
    R.push_back(static_cast<std::uint8_t>(20 << 1)); // first use at 60
    R.push_back(static_cast<std::uint8_t>(
        (FirstBoundaryDelta << 1) ^ (FirstBoundaryDelta >> 63)));
    return R;
  };
  EXPECT_EQ(Error(TwoUses(10, 10, 10)),
            "malformed event stream: first use after the last use in "
            "collect record");
  EXPECT_EQ(Error(TwoUses(30, 10, 5)),
            "malformed event stream: first use after the last use in "
            "collect record");
  // Alloc and Use are legacy records.
  EXPECT_EQ(Error({0x01, 0x00, 0x00, 0x10, 0x03, 0x01}),
            "malformed event stream: alloc record in a v8 stream");
  EXPECT_EQ(Error({0x02, 0x00, 0x00, 0x01}),
            "malformed event stream: use record in a v8 stream");
}

TEST(EventWire, V3RecordsStraddleFeedBoundaries) {
  // The record of an object allocated at time 1000 (object 7, 24 bytes,
  // class 3, site 5), used once outside its initialization at time 1500
  // (site 6) and collected at time 2000.
  auto ExpectRecord = [](const EventRecord &E) {
    EXPECT_EQ(E.kind(), EventKind::Collect);
    EXPECT_EQ(E.Time, 2000u);
    EXPECT_EQ(E.Id, 7u);
    EXPECT_EQ(E.Arg0, 24u);
    EXPECT_EQ(E.Arg1, 3u);
    EXPECT_EQ(E.Site, 5u);
    EXPECT_EQ(E.AllocTime, 1000u);
    EXPECT_EQ(E.FirstUseTime, 1500u);
    EXPECT_EQ(E.LastUseTime, 1500u);
    EXPECT_EQ(E.LastUseBoundary, 0u);
    EXPECT_EQ(E.LastUseSite, 6u);
    EXPECT_EQ(E.UseCount, 1u);
    EXPECT_EQ(E.Flags, RecordUsedOutsideInit);
  };

  // As one v3 chunk holding its Alloc and Use (the writer's bytes), then
  // a second chunk with its Collect, read by the legacy reader: it
  // rebuilds the trailer across the chunks.
  static constexpr std::uint8_t V3[] = {
      0x6a, 0x64, 0x43, 0x6b, 0x00, 0x00, 0x00, 0x00, 0x0c, 0x00,
      0x00, 0x00, 0xde, 0xeb, 0x90, 0x4c, 0x01, 0xd0, 0x0f, 0x07,
      0x18, 0x03, 0x06, 0x02, 0xe8, 0x07, 0x07, 0x07};
  std::vector<std::byte> Stream(reinterpret_cast<const std::byte *>(V3),
                                reinterpret_cast<const std::byte *>(V3) +
                                    sizeof(V3));
  const std::uint8_t CollectRecord[] = {0x05, 0xe8, 0x07, 0x07};
  ChunkHeader H;
  H.Magic = ChunkMagic;
  H.Seq = 1;
  H.PayloadBytes = sizeof(CollectRecord);
  H.Crc = support::crc32c(CollectRecord, sizeof(CollectRecord));
  const auto *HB = reinterpret_cast<const std::byte *>(&H);
  Stream.insert(Stream.end(), HB, HB + sizeof(H));
  const auto *RB = reinterpret_cast<const std::byte *>(CollectRecord);
  Stream.insert(Stream.end(), RB, RB + sizeof(CollectRecord));
  CollectingConsumer Legacy;
  std::string Err;
  ASSERT_TRUE(replayBytes(Stream, Legacy, &Err, WireFormat::V3)) << Err;
  ASSERT_EQ(Legacy.Events.size(), 1u);
  ExpectRecord(Legacy.Events[0]);

  // The same object's v8 record (collected at 2000), after a GC
  // sample, fed to the frame decoder one byte at a time: it must buffer
  // the partial frame without corrupting the delta chains.
  MemorySink Mem;
  EventBuffer Buf(Mem);
  EventRecord E;
  E.Kind = static_cast<std::uint8_t>(EventKind::GCEnd);
  E.Time = 1800;
  E.Arg0 = 24;
  E.Arg1 = 1;
  Buf.writeEvent(E);
  E = EventRecord();
  E.Kind = static_cast<std::uint8_t>(EventKind::Collect);
  E.Time = 2000;
  E.Id = 7;
  E.Arg0 = 24;
  E.Arg1 = 3;
  E.Site = 5;
  E.Flags = RecordUsedOutsideInit;
  E.AllocTime = 1000;
  E.FirstUseTime = E.LastUseTime = 1500;
  E.LastUseSite = 6;
  E.UseCount = 1;
  Buf.writeEvent(E);
  ASSERT_TRUE(Buf.flush());
  CollectingConsumer C;
  FrameDecoder D(C);
  for (std::byte Byte : Mem.bytes())
    ASSERT_TRUE(D.feed(&Byte, 1)) << D.error();
  ASSERT_TRUE(D.atRecordBoundary());
  ASSERT_EQ(C.Events.size(), 2u);
  EXPECT_EQ(C.Events[0].Time, 1800u);
  ExpectRecord(C.Events[1]);
  EXPECT_EQ(std::memcmp(&C.Events[1], &Legacy.Events[0], sizeof(E)), 0);
}

TEST(EventWire, TruncatedStreamIsNotAtRecordBoundary) {
  MemorySink Mem;
  EventBuffer Buf(Mem);
  EventRecord E;
  E.Kind = static_cast<std::uint8_t>(EventKind::Terminate);
  Buf.writeEvent(E);
  ASSERT_TRUE(Buf.flush());

  CollectingConsumer C;
  std::string Err;
  std::span<const std::byte> Bytes = Mem.bytes();
  EXPECT_FALSE(replayBytes(Bytes.first(Bytes.size() - 1), C, &Err));
  EXPECT_NE(Err.find("truncated"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Record / replay
//===----------------------------------------------------------------------===//

// The pipeline's core guarantee, on a real workload (the acceptance
// criterion): recording jess to a `.jdev` file and replaying it detached
// produces a ProfileLog bit-identical to a live attached run -- same
// records, same GC samples, same sites, same total drag.
TEST(RecordReplay, JessReplayMatchesAttachedBitForBit) {
  benchmarks::BenchmarkProgram B = benchmarks::buildJess();
  ProfileLog Live = liveRun(B.Prog, B.DefaultInputs);
  ASSERT_FALSE(Live.Records.empty());
  ASSERT_FALSE(Live.GCSamples.empty());

  std::string Path = tempPath("jess.jdev");
  recordRun(B.Prog, B.DefaultInputs, Path);

  ProfileLog Replayed;
  std::string Err;
  ASSERT_TRUE(replayProfile(Path, B.Prog, ProfilerConfig(), Replayed, &Err))
      << Err;
  std::remove(Path.c_str());

  EXPECT_EQ(Replayed.Records.size(), Live.Records.size());
  EXPECT_EQ(Replayed.GCSamples.size(), Live.GCSamples.size());
  EXPECT_EQ(Replayed.Sites.size(), Live.Sites.size());
  EXPECT_EQ(Replayed.EndTime, Live.EndTime);
  EXPECT_EQ(Replayed.totalDrag(), Live.totalDrag());
  expectBitIdentical(Live, Replayed);
}

// The async writer thread must not change a single byte of the
// recording -- chunks arrive in order from one producer, so the file is
// byte-for-byte what the synchronous sink writes.
TEST(RecordReplay, AsyncRecordingIsByteIdenticalToSync) {
  ir::Program P = buildChurnProgram();
  std::string SyncPath = tempPath("sync.jdev");
  std::string AsyncPath = tempPath("async.jdev");
  recordRun(P, {400}, SyncPath);
  recordRun(P, {400}, AsyncPath, /*Async=*/true);
  EXPECT_EQ(readFileBytes(SyncPath), readFileBytes(AsyncPath));
  std::remove(SyncPath.c_str());
  std::remove(AsyncPath.c_str());
}

// Pinned observables of tests/data/juru_v2.jdev, captured when the
// fixture was generated (see CommittedV2FixtureStillReplays).
constexpr std::size_t FixtureRecords = 1011;
constexpr std::uint32_t FixtureSites = 12;
constexpr ByteTime FixtureEndTime = 8176216;

// A `.jdev` on disk is a contract that outlives the writer: this v2
// recording of the juru benchmark was committed before the default
// wire format moved to v3, and it must keep fsck'ing clean and
// replaying to the same profile forever. The counts are pinned from
// the fixture-generation run; if this test fails after an
// event-pipeline change, v2 backward compatibility broke -- fix the
// decoder, do not regenerate the fixture.
TEST(RecordReplay, CommittedV2FixtureStillReplays) {
  const std::string Path =
      std::string(JDRAG_TEST_DATA_DIR) + "/juru_v2.jdev";

  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_TRUE(Rep.readable()) << Rep.FileError;
  EXPECT_EQ(Rep.Version, 2u);
  EXPECT_TRUE(Rep.clean());

  benchmarks::BenchmarkProgram B = benchmarks::buildJuru();
  ProfileLog Replayed;
  std::string Err;
  ASSERT_TRUE(replayProfile(Path, B.Prog, ProfilerConfig(), Replayed, &Err))
      << Err;
  EXPECT_TRUE(Replayed.Complete);

  // Pinned at fixture-generation time (jdrag record juru --v2, default
  // interval and depth).
  EXPECT_EQ(Replayed.Records.size(), FixtureRecords);
  EXPECT_EQ(Replayed.Sites.size(), FixtureSites);
  EXPECT_EQ(Replayed.EndTime, FixtureEndTime);

  // And the modern pipeline agrees with the legacy recording: a live
  // run of the same benchmark produces the identical profile.
  ProfileLog Live = liveRun(B.Prog, B.DefaultInputs);
  expectBitIdentical(Live, Replayed);
}

// Same contract for the committed v3 fixture: recorded before v4 added
// record-aligned chunks and the index footer, so it has neither, and it
// must keep replaying -- sequentially and through the parallel entry
// point -- to the same profile forever. Same benchmark and knobs as the
// v2 fixture, so the pinned observables are shared. If this fails after
// a pipeline change, v3 backward compatibility broke; fix the decoder,
// do not regenerate.
TEST(RecordReplay, CommittedV3FixtureStillReplays) {
  const std::string Path =
      std::string(JDRAG_TEST_DATA_DIR) + "/juru_v3.jdev";

  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_TRUE(Rep.readable()) << Rep.FileError;
  EXPECT_EQ(Rep.Version, 3u);
  EXPECT_TRUE(Rep.clean());
  EXPECT_FALSE(Rep.FooterPresent); // pre-footer format, by construction

  benchmarks::BenchmarkProgram B = benchmarks::buildJuru();
  ProfileLog Replayed;
  std::string Err;
  ASSERT_TRUE(replayProfile(Path, B.Prog, ProfilerConfig(), Replayed, &Err))
      << Err;
  EXPECT_TRUE(Replayed.Complete);

  // Pinned at fixture-generation time (jdrag record juru --v3, default
  // interval and depth) -- identical to the v2 fixture's pins because
  // the format must not change the profile.
  EXPECT_EQ(Replayed.Records.size(), FixtureRecords);
  EXPECT_EQ(Replayed.Sites.size(), FixtureSites);
  EXPECT_EQ(Replayed.EndTime, FixtureEndTime);

  ProfileLog Live = liveRun(B.Prog, B.DefaultInputs);
  expectBitIdentical(Live, Replayed);

  // And the parallel entry point reads the footerless v3 stream too,
  // through its sequential fallback.
  ProfileLog Par;
  unsigned Shards = 0;
  ASSERT_TRUE(
      replaySharded(Path, B.Prog, ProfilerConfig(), 4, Par, &Err, &Shards))
      << Err;
  EXPECT_EQ(Shards, 1u);
  expectSameProfile(Replayed, Par);
}

// The committed v4-v7 recordings of juru (tests/data/README.md): 2 KiB
// chunks and a chunk index footer. v4-v6 carry absolute object ids; v5
// is sampled at the default 64 KiB interval, v6 compresses its chunks.
// The v7 pair delta-codes its ids and compresses, one exact and one
// sampled.
struct ChunkedFixture {
  const char *File;
  std::uint32_t Version;
  std::uint64_t SampleBytes;
  bool Compressed;
};
constexpr ChunkedFixture ChunkedFixtures[] = {
    {"juru_v4.jdev", 4, 0, false},
    {"juru_v5.jdev", 5, DefaultSampleBytes, false},
    {"juru_v6.jdev", 6, 0, true},
    {"juru_v7.jdev", 7, 0, true},
    {"juru_v7_sampled.jdev", 7, DefaultSampleBytes, true},
};
std::string fixturePath(const char *File) {
  return std::string(JDRAG_TEST_DATA_DIR) + "/" + File;
}

/// The live attached profile of juru with \p SampleBytes sampling.
ProfileLog liveJuru(const benchmarks::BenchmarkProgram &B,
                    std::uint64_t SampleBytes) {
  DragProfiler Prof(B.Prog);
  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.SampleBytes = SampleBytes;
  Prof.attachTo(Opts);
  vm::VirtualMachine VM(B.Prog, Opts);
  VM.setInputs(B.DefaultInputs);
  std::string Err;
  EXPECT_EQ(VM.run(&Err), vm::Interpreter::Status::Ok) << Err;
  return Prof.takeLog();
}

// Each fixture stays a clean, seekable recording that replays -- and
// salvages -- to the live profile of the same run, whatever the current
// writer produces. If this fails after a pipeline change, reading
// v4-v6 broke; fix the reader, do not regenerate the fixture.
TEST(RecordReplay, CommittedV4V5V6FixturesStillReplay) {
  benchmarks::BenchmarkProgram B = benchmarks::buildJuru();
  for (const ChunkedFixture &Fx : ChunkedFixtures) {
    std::string Path = fixturePath(Fx.File);
    SCOPED_TRACE(Fx.File);

    SalvageReport Rep = scanEventFile(Path, nullptr);
    ASSERT_TRUE(Rep.readable()) << Rep.FileError;
    EXPECT_EQ(Rep.Version, Fx.Version);
    EXPECT_TRUE(Rep.clean()) << Rep.summary(Path);
    EXPECT_TRUE(Rep.FooterPresent);
    EXPECT_TRUE(Rep.FooterOk);
    EXPECT_EQ(Rep.Compressed, Fx.Compressed);
    EXPECT_EQ(Rep.Sampling.SampleBytes, Fx.SampleBytes);
    EXPECT_GE(Rep.Chunks.size(), 4u);

    ProfileLog Replayed;
    std::string Err;
    ASSERT_TRUE(replayProfile(Path, B.Prog, ProfilerConfig(), Replayed, &Err))
        << Err;
    EXPECT_TRUE(Replayed.Complete);
    EXPECT_EQ(Replayed.Compressed, Fx.Compressed);
    if (!Fx.SampleBytes) {
      EXPECT_EQ(Replayed.Records.size(), FixtureRecords);
      EXPECT_EQ(Replayed.Sites.size(), FixtureSites);
      EXPECT_EQ(Replayed.EndTime, FixtureEndTime);
    }

    // Salvage rewrites the recording in the current format; the result
    // replays to the same profile.
    std::string Out = tempPath("fixture_salvaged.jdev");
    SalvageReport SalvRep;
    ASSERT_TRUE(salvageEventFile(Path, Out, &SalvRep, &Err)) << Err;
    EXPECT_TRUE(SalvRep.clean());
    ProfileLog Salvaged;
    ASSERT_TRUE(replayProfile(Out, B.Prog, ProfilerConfig(), Salvaged, &Err))
        << Err;
    std::remove(Out.c_str());
    expectBitIdentical(Replayed, Salvaged);

    // A live run knows nothing of compression; otherwise it is the
    // same profile.
    Replayed.Compressed = false;
    expectBitIdentical(liveJuru(B, Fx.SampleBytes), Replayed);
  }
}

// A TeeSink records and profiles in a single run; the recording then
// replays to the same log the live consumer built from the same bytes.
TEST(RecordReplay, TeeRecordsWhileProfilingLive) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("tee.jdev");

  DragProfiler Prof(P);
  FileEventSink File;
  ASSERT_TRUE(File.open(Path));
  TeeSink Tee(Prof.sink(), File);
  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Prof.attachTo(Opts);
  Opts.Sink = &Tee; // override: tee into both consumers
  vm::VirtualMachine VM(P, Opts);
  VM.setInputs({400});
  std::string Err;
  ASSERT_EQ(VM.run(&Err), vm::Interpreter::Status::Ok) << Err;
  ProfileLog Live = Prof.takeLog();
  ASSERT_FALSE(Live.Records.empty());

  ProfileLog Replayed;
  ASSERT_TRUE(replayProfile(Path, P, ProfilerConfig(), Replayed, &Err)) << Err;
  std::remove(Path.c_str());
  expectBitIdentical(Live, Replayed);
}

// Chunk-boundary torture on the live path: a 7-byte chunk size forces
// every record through several DispatchSink::writeChunk calls, and the
// log must not change.
TEST(RecordReplay, TinyChunksMatchDefaultChunks) {
  ir::Program P = buildChurnProgram();
  ProfileLog Default = liveRun(P, {300});
  ProfileLog Tiny = liveRun(P, {300}, /*ChunkBytes=*/7);
  ASSERT_FALSE(Default.Records.empty());
  expectBitIdentical(Default, Tiny);
}

// Zero-allocation program: the stream still carries the final deep-GC
// bookkeeping (GC samples, terminate) and replays cleanly.
TEST(RecordReplay, EmptyProgramRoundTrips) {
  ir::Program P = buildEmptyProgram();
  ProfileLog Live = liveRun(P, {});
  EXPECT_TRUE(Live.Records.empty());
  EXPECT_FALSE(Live.GCSamples.empty()); // final deep GC always samples

  std::string Path = tempPath("empty.jdev");
  recordRun(P, {}, Path);
  ProfileLog Replayed;
  std::string Err;
  ASSERT_TRUE(replayProfile(Path, P, ProfilerConfig(), Replayed, &Err)) << Err;
  std::remove(Path.c_str());
  expectBitIdentical(Live, Replayed);
}

// Opening an already-open sink is a real error in every build mode, and
// the first stream keeps working (it used to be release-mode UB via a
// compiled-out assert).
TEST(RecordReplay, DoubleOpenFailsWithoutKillingFirstStream) {
  std::string PathA = tempPath("dopen_a.jdev");
  std::string PathB = tempPath("dopen_b.jdev");
  FileEventSink Sink;
  ASSERT_TRUE(Sink.open(PathA));
  EXPECT_FALSE(Sink.open(PathB));

  EventBuffer Buf(Sink);
  EventRecord E;
  E.Kind = static_cast<std::uint8_t>(EventKind::Terminate);
  Buf.writeEvent(E);
  EXPECT_TRUE(Buf.flush());
  EXPECT_TRUE(Sink.finish());

  CollectingConsumer C;
  std::string Err;
  EXPECT_TRUE(replayFile(PathA, C, &Err)) << Err;
  EXPECT_EQ(C.Events.size(), 1u);
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

// A header-only `.jdev` (zero events) is a valid, empty stream.
TEST(RecordReplay, HeaderOnlyFileReplaysToNothing) {
  std::string Path = tempPath("headeronly.jdev");
  {
    FileEventSink Sink;
    ASSERT_TRUE(Sink.open(Path));
    ASSERT_TRUE(Sink.finish());
  }
  CollectingConsumer C;
  std::string Err;
  EXPECT_TRUE(replayFile(Path, C, &Err)) << Err;
  EXPECT_TRUE(C.Events.empty());
  EXPECT_TRUE(C.Sites.empty());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Corrupt / truncated recordings
//===----------------------------------------------------------------------===//

TEST(RecordReplay, RejectsBadMagic) {
  std::string Path = tempPath("badmagic.jdev");
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << "this is not a jdev stream at all, not even close";
  }
  CollectingConsumer C;
  std::string Err;
  EXPECT_FALSE(replayFile(Path, C, &Err));
  EXPECT_NE(Err.find("magic"), std::string::npos) << Err;
  std::remove(Path.c_str());
}

TEST(RecordReplay, RejectsWrongVersion) {
  std::string Path = tempPath("badversion.jdev");
  {
    std::ofstream Out(Path, std::ios::binary);
    std::uint64_t Magic = 0x6a64657673747231ULL; // "jdevstr1"
    std::uint32_t Version = 999, Reserved = 0;
    Out.write(reinterpret_cast<const char *>(&Magic), sizeof(Magic));
    Out.write(reinterpret_cast<const char *>(&Version), sizeof(Version));
    Out.write(reinterpret_cast<const char *>(&Reserved), sizeof(Reserved));
  }
  CollectingConsumer C;
  std::string Err;
  EXPECT_FALSE(replayFile(Path, C, &Err));
  EXPECT_NE(Err.find("version"), std::string::npos) << Err;
  std::remove(Path.c_str());
}

TEST(RecordReplay, RejectsTruncatedRecording) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("trunc.jdev");
  recordRun(P, {50}, Path);

  // Chop mid-record: drop the last 17 bytes (17 < sizeof(EventRecord),
  // and not a multiple of anything in the format).
  std::vector<char> Bytes = readFileBytes(Path);
  ASSERT_GT(Bytes.size(), 16u + 17u);
  std::string Cut = tempPath("trunc_cut.jdev");
  {
    std::ofstream Out(Cut, std::ios::binary);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size() - 17));
  }
  ProfileLog Ignored;
  std::string Err;
  EXPECT_FALSE(replayProfile(Cut, P, ProfilerConfig(), Ignored, &Err));
  EXPECT_NE(Err.find("truncated"), std::string::npos) << Err;
  std::remove(Path.c_str());
  std::remove(Cut.c_str());
}

} // namespace
