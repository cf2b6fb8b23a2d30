//===- tests/test_daemon.cpp - jdragd + SocketEventSink robustness --------===//
//
// The fault-tolerance contract of the out-of-process collector, proven
// end to end with a real forked daemon:
//
//  - an uninterrupted session leaves a daemon-side recording and TOP
//    aggregate bit-identical to a local recording + offline replay;
//  - SIGKILLing the daemon mid-stream never takes the VM down: the sink
//    fails over to the local spool, nothing is dropped, the daemon's
//    partial recording fscks with a clean salvageable prefix, and the
//    spool covers exactly the tail;
//  - partial writes and connection resets (socket fault injector) are
//    absorbed by the send loop and reconnect path;
//  - an unreachable-at-start daemon degrades to a spool byte-identical
//    to a local recording;
//  - a slow consumer under the Drop policy sheds chunks with exact
//    accounting instead of wedging the VM;
//  - a dribbling client (1-byte reads) exercises the daemon's
//    incremental message reassembly;
//  - well-formed sessions carrying object ids at 2^40 and 2^62 decode in
//    trailer state sized by their live objects, and the daemon keeps
//    serving.
//
//===----------------------------------------------------------------------===//

#include "analysis/DragReport.h"
#include "benchmarks/Benchmarks.h"
#include "daemon/Daemon.h"
#include "daemon/Protocol.h"
#include "profiler/DragProfiler.h"
#include "profiler/Sampling.h"
#include "profiler/SocketEventSink.h"
#include "profiler/StreamSalvage.h"

#include "HostileStream.h"
#include "ShardedReplay.h"

#include "gtest/gtest.h"

#include <cerrno>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace jdrag;
using namespace jdrag::daemon;
using namespace jdrag::profiler;

namespace {

std::vector<std::byte> readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::vector<char> Bytes((std::istreambuf_iterator<char>(In)),
                          std::istreambuf_iterator<char>());
  const std::byte *P = reinterpret_cast<const std::byte *>(Bytes.data());
  return std::vector<std::byte>(P, P + Bytes.size());
}

/// Event counter for replayFile.
class CountingConsumer : public EventConsumer {
public:
  void onSite(SiteId, std::span<const SiteFrame>) override { ++Sites; }
  void onEvent(const EventRecord &) override { ++Events; }
  std::uint64_t Sites = 0;
  std::uint64_t Events = 0;
};

const benchmarks::BenchmarkProgram &jessBench() {
  static std::vector<benchmarks::BenchmarkProgram> All =
      benchmarks::buildAll();
  for (const auto &B : All)
    if (B.Name == "jess")
      return B;
  std::abort();
}

/// Runs the jess workload with \p Sink receiving the event stream,
/// using the same options for every caller so chunk boundaries (and
/// therefore file bytes) are reproducible across runs. \p SampleBytes
/// is the VM's allocation sampling interval (0 = exact).
StreamHealth runWorkload(EventSink &Sink, std::uint64_t SampleBytes = 0) {
  const benchmarks::BenchmarkProgram &B = jessBench();
  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.Sink = &Sink;
  Opts.SampleBytes = SampleBytes;
  vm::VirtualMachine VM(B.Prog, Opts);
  VM.setInputs(B.DefaultInputs);
  std::string Err;
  EXPECT_EQ(VM.run(&Err), vm::Interpreter::Status::Ok) << Err;
  return VM.streamHealth();
}

/// A real jdragd in a forked child, bound to Unix sockets in a fresh
/// temp dir. The parent talks to it exactly as production clients do:
/// the session socket for chunks, the admin socket for introspection.
class DaemonHarness {
public:
  struct Config {
    std::uint32_t FsyncEveryChunks = 0;
  };

  void start() { start(Config()); }
  void start(Config C) {
    char Tmpl[] = "/tmp/jdragd_test_XXXXXX";
    ASSERT_NE(::mkdtemp(Tmpl), nullptr);
    Dir = Tmpl;
    SessionAddr = "unix:" + Dir + "/session.sock";
    AdminAddr = "unix:" + Dir + "/admin.sock";
    Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      DaemonOptions O;
      O.SessionAddr = SessionAddr;
      O.AdminAddr = AdminAddr;
      O.OutputDir = Dir;
      O.FsyncEveryChunks = C.FsyncEveryChunks;
      O.Resolve = [](const std::string &Name) -> const ir::Program * {
        static std::vector<benchmarks::BenchmarkProgram> All =
            benchmarks::buildAll();
        for (const auto &B : All)
          if (B.Name == Name)
            return &B.Prog;
        return nullptr;
      };
      // Never let the child fall back into gtest's main loop: any
      // escape (even an exception) must end in _exit.
      int Rc = 9;
      try {
        CollectorDaemon D(std::move(O));
        std::string Err;
        if (D.start(&Err)) {
          D.installSignalHandlers();
          Rc = D.run();
        }
      } catch (...) {
        Rc = 10;
      }
      ::_exit(Rc);
    }
    // Wait until the daemon answers PING.
    bool Up = false;
    for (int I = 0; I != 500 && !Up; ++I) {
      std::string Resp, Err;
      Up = adminQuery(AdminAddr, "PING", &Resp, &Err, 200) &&
           Resp == "PONG\n";
      if (!Up)
        ::usleep(10000);
    }
    ASSERT_TRUE(Up) << "daemon did not come up";
  }

  std::string admin(const std::string &Cmd) {
    std::string Resp, Err;
    EXPECT_TRUE(adminQuery(AdminAddr, Cmd, &Resp, &Err)) << Err;
    return Resp;
  }

  /// SIGKILL -- the crash the whole subsystem is built to survive.
  void killHard() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGKILL);
    int St = 0;
    ::waitpid(Pid, &St, 0);
    Pid = -1;
  }

  /// Graceful stop through the admin protocol; returns the exit code.
  int shutdown() {
    if (Pid <= 0)
      return -1;
    std::string Resp, Err;
    adminQuery(AdminAddr, "SHUTDOWN", &Resp, &Err);
    int St = 0;
    ::waitpid(Pid, &St, 0);
    Pid = -1;
    return WIFEXITED(St) ? WEXITSTATUS(St) : -1;
  }

  ~DaemonHarness() { killHard(); }

  std::string Dir;
  std::string SessionAddr;
  std::string AdminAddr;
  pid_t Pid = -1;
};

//===----------------------------------------------------------------------===//
// Protocol units
//===----------------------------------------------------------------------===//

TEST(SessionProtocol, HelloRoundTripsThroughDribbledReader) {
  HelloInfo In;
  In.Pid = 1234;
  In.Name = "jess";
  In.Format = WireFormat::V8;
  In.SampleBytes = 64 * 1024;
  In.SampleSeed = 42;
  std::vector<std::byte> Wire = encodeHello(In);

  MessageReader Rd;
  MsgHeader H;
  std::span<const std::byte> Payload;
  // One byte at a time: no message until the last byte lands.
  for (std::size_t I = 0; I + 1 < Wire.size(); ++I) {
    Rd.append(&Wire[I], 1);
    ASSERT_EQ(Rd.next(H, Payload), MessageReader::Status::NeedMore);
  }
  Rd.append(&Wire.back(), 1);
  ASSERT_EQ(Rd.next(H, Payload), MessageReader::Status::Message);
  EXPECT_EQ(static_cast<MsgType>(H.Type), MsgType::Hello);

  HelloInfo Out;
  std::string Err;
  ASSERT_TRUE(decodeHello(Payload, Out, &Err)) << Err;
  EXPECT_EQ(Out.Pid, 1234u);
  EXPECT_EQ(Out.Name, "jess");
  EXPECT_EQ(Out.Format, WireFormat::V8);
  EXPECT_EQ(Out.SampleBytes, 64u * 1024);
  EXPECT_EQ(Out.SampleSeed, 42u);
  EXPECT_EQ(Rd.pendingBytes(), 0u);
}

// HELLO has one format and one layout: a session decodes v8 chunk by
// chunk, and the sampling extension is always there. Every other format,
// sampled or exact, and the extension-less layout are refused.
TEST(SessionProtocol, HelloRefusesEveryOtherFormatAndLayout) {
  auto Decode = [](WireFormat F, std::uint64_t SampleBytes, bool Short,
                   std::string &Err) {
    HelloInfo In;
    In.Name = "javac";
    In.Format = F;
    In.SampleBytes = SampleBytes;
    std::vector<std::byte> Wire = encodeHello(In);
    std::span<const std::byte> Payload =
        std::span<const std::byte>(Wire).subspan(sizeof(MsgHeader));
    if (Short) // the layout without the 16-byte sampling extension
      Payload = Payload.first(Payload.size() - 16);
    HelloInfo Out;
    Err.clear();
    return decodeHello(Payload, Out, &Err);
  };
  std::string Err;
  for (unsigned F : {2u, 3u, 4u, 5u, 6u, 7u, 9u})
    for (std::uint64_t SampleBytes : {std::uint64_t(64 * 1024),
                                      std::uint64_t(0)}) {
      EXPECT_FALSE(Decode(static_cast<WireFormat>(F), SampleBytes, false,
                          Err))
          << F;
      EXPECT_EQ(Err, "HELLO carries unsupported wire format " +
                         std::to_string(F) + " (jdragd reads format 8)");
    }
  for (std::uint64_t SampleBytes : {std::uint64_t(64 * 1024),
                                    std::uint64_t(0)}) {
    EXPECT_TRUE(Decode(WireFormat::V8, SampleBytes, false, Err)) << Err;
    EXPECT_FALSE(Decode(WireFormat::V8, SampleBytes, true, Err));
    EXPECT_EQ(Err, "malformed HELLO name length");
  }
}

TEST(SessionProtocol, ReaderRejectsGarbageSticky) {
  MessageReader Rd;
  std::uint32_t Junk[4] = {0xdeadbeef, 1, 0, 0};
  Rd.append(reinterpret_cast<const std::byte *>(Junk), sizeof(Junk));
  MsgHeader H;
  std::span<const std::byte> Payload;
  EXPECT_EQ(Rd.next(H, Payload), MessageReader::Status::Error);
  EXPECT_FALSE(Rd.error().empty());
  // Sticky: even after appending a valid message.
  std::vector<std::byte> Wire = encodeBye(ByeInfo());
  Rd.append(Wire.data(), Wire.size());
  EXPECT_EQ(Rd.next(H, Payload), MessageReader::Status::Error);
}

TEST(SessionProtocol, ReaderRejectsOversizedLength) {
  MsgHeader H;
  H.Type = static_cast<std::uint32_t>(MsgType::Chunk);
  H.Length = MaxMessagePayload + 1;
  MessageReader Rd;
  Rd.append(reinterpret_cast<const std::byte *>(&H), sizeof(H));
  std::span<const std::byte> Payload;
  EXPECT_EQ(Rd.next(H, Payload), MessageReader::Status::Error);
}

TEST(SessionProtocol, ParseAddressForms) {
  Address A;
  std::string Err;
  EXPECT_TRUE(parseAddress("unix:/tmp/x.sock", A, &Err));
  EXPECT_EQ(A.K, Address::Kind::Unix);
  EXPECT_EQ(A.Path, "/tmp/x.sock");
  EXPECT_TRUE(parseAddress("tcp:127.0.0.1:9090", A, &Err));
  EXPECT_EQ(A.K, Address::Kind::Tcp);
  EXPECT_EQ(A.Host, "127.0.0.1");
  EXPECT_EQ(A.Port, 9090);
  EXPECT_FALSE(parseAddress("udp:nope", A, &Err));
  EXPECT_FALSE(parseAddress("tcp:nohost", A, &Err));
  EXPECT_FALSE(parseAddress("tcp:h:0", A, &Err));
  EXPECT_FALSE(parseAddress("unix:", A, &Err));
}

TEST(Backoff, DelayDoublesCapsAndJitters) {
  BackoffPolicy P; // 100us base, shift cap 7, no jitter
  EXPECT_EQ(backoffDelayMicros(P, 0), 100u);
  EXPECT_EQ(backoffDelayMicros(P, 1), 200u);
  EXPECT_EQ(backoffDelayMicros(P, 7), 12800u);
  EXPECT_EQ(backoffDelayMicros(P, 20), 12800u); // capped
  P.Jitter = true;
  // Deterministic: same salt, same delay; jitter only ever shortens.
  std::uint32_t A = backoffDelayMicros(P, 3, 42);
  EXPECT_EQ(A, backoffDelayMicros(P, 3, 42));
  EXPECT_LE(A, 800u);
  EXPECT_GE(A, 400u); // at most half is subtracted
}

//===----------------------------------------------------------------------===//
// Admin protocol (in-process)
//===----------------------------------------------------------------------===//

TEST(AdminProtocol, CommandSurface) {
  DaemonOptions O;
  O.SessionAddr = "unix:/tmp/unused.sock";
  CollectorDaemon D(std::move(O));
  EXPECT_EQ(D.execAdmin("PING"), "PONG\n");
  EXPECT_EQ(D.execAdmin("  PING  "), "PONG\n");
  EXPECT_EQ(D.execAdmin("TOP 5"), ""); // empty fleet
  EXPECT_EQ(D.execAdmin("TOP x"), "ERR TOP expects a count\n");
  EXPECT_NE(D.execAdmin("INFO").find("jdragd proto=1"), std::string::npos);
  EXPECT_NE(D.execAdmin("HEALTH").find("sessions_total=0"),
            std::string::npos);
  EXPECT_NE(D.execAdmin("NOSUCH").find("ERR unknown"), std::string::npos);
  EXPECT_NE(D.execAdmin("").find("ERR"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// ProfileLog v05 delivery accounting
//===----------------------------------------------------------------------===//

TEST(ProfileLogV5, RetryAndErrnoCountersRoundTrip) {
  char Tmpl[] = "/tmp/jdlog_XXXXXX";
  ASSERT_NE(::mkdtemp(Tmpl), nullptr);
  std::string Path = std::string(Tmpl) + "/x.jdlog";

  ProfileLog Log;
  Log.EndTime = 12345;
  Log.Retries = 7;
  Log.LastErrno = EIO;
  ASSERT_TRUE(Log.writeFile(Path));

  ProfileLog Back;
  ASSERT_TRUE(ProfileLog::readFile(Path, Back));
  EXPECT_EQ(Back.Retries, 7u);
  EXPECT_EQ(Back.LastErrno, EIO);
  EXPECT_TRUE(Back.Complete);

  // noteStreamHealth stamps all five fields.
  StreamHealth H;
  H.Retries = 3;
  H.LastErrno = EPIPE;
  H.ChunksDropped = 2;
  H.BytesDropped = 99;
  DragProfiler Prof(jessBench().Prog);
  Prof.noteStreamHealth(H);
  EXPECT_FALSE(Prof.log().Complete);
  EXPECT_EQ(Prof.log().Retries, 3u);
  EXPECT_EQ(Prof.log().LastErrno, EPIPE);
  EXPECT_EQ(Prof.log().DroppedChunks, 2u);
}

//===----------------------------------------------------------------------===//
// End-to-end: uninterrupted session
//===----------------------------------------------------------------------===//

TEST(Daemon, UninterruptedSessionIsBitIdenticalToLocalRecord) {
  DaemonHarness H;
  H.start();

  SocketEventSink::Options SO;
  SO.Connect = H.SessionAddr;
  SO.Name = "jess";
  SocketEventSink Sock(SO);
  StreamHealth SH = runWorkload(Sock);
  EXPECT_TRUE(SH.intact());
  EXPECT_EQ(SH.ChunksDropped, 0u);
  EXPECT_EQ(SH.Failovers, 0u);
  EXPECT_EQ(SH.SpooledChunks, 0u);
  EXPECT_EQ(Sock.sessionsOpened(), 1u);
  EXPECT_EQ(Sock.footersSwallowed(), 0u);

  // Local twin with identical options.
  std::string LocalPath = H.Dir + "/local.jdev";
  FileEventSink File;
  ASSERT_TRUE(File.open(LocalPath));
  runWorkload(File);

  // (a) The daemon's session recording is byte-identical.
  std::string DaemonPath = H.Dir + "/session-0-jess.jdev";
  std::vector<std::byte> DaemonBytes = readAll(DaemonPath);
  std::vector<std::byte> LocalBytes = readAll(LocalPath);
  ASSERT_FALSE(DaemonBytes.empty());
  EXPECT_EQ(DaemonBytes, LocalBytes);

  // (b) The daemon's live aggregate matches an offline replay + fold of
  // the recorded file, byte for byte.
  std::string AdminTop = H.admin("TOP 10");
  ProfileLog Log;
  std::string Err;
  ASSERT_TRUE(
      replayProfile(DaemonPath, jessBench().Prog, ProfilerConfig(), Log,
                    &Err))
      << Err;
  FleetAggregate Offline;
  Offline.fold("jess", analysis::DragReport(jessBench().Prog, Log));
  EXPECT_EQ(AdminTop, Offline.renderTop(10));
  EXPECT_FALSE(AdminTop.empty());

  // (c) Daemon-side accounting saw a clean session.
  std::string Health = H.admin("HEALTH");
  EXPECT_NE(Health.find("sessions_clean=1"), std::string::npos);
  EXPECT_NE(Health.find("bye_mismatches=0"), std::string::npos);
  EXPECT_NE(Health.find("decode_errors=0"), std::string::npos);
  EXPECT_EQ(H.shutdown(), 0);
}

/// The value of the first "\p Key=<number>" field in \p Line.
unsigned long long fieldValue(const std::string &Line, const std::string &Key) {
  std::size_t At = Line.find(" " + Key + "=");
  EXPECT_NE(At, std::string::npos) << Key << " in " << Line;
  if (At == std::string::npos)
    return 0;
  return std::strtoull(Line.c_str() + At + Key.size() + 2, nullptr, 10);
}

// A session sampled at 64 KiB: the daemon's TOP and its CLIENTS
// raw-/est-obj-bytes must equal what an offline replay of the session's
// own recording computes -- the materialized log, its DragReport, and
// the object-byte sums taken in record order.
TEST(Daemon, SampledSessionMatchesOfflineReplayOfItsRecording) {
  DaemonHarness H;
  H.start();
  constexpr std::uint64_t SampleBytes = 64 * KB;
  {
    SocketEventSink::Options SO;
    SO.Connect = H.SessionAddr;
    SO.Name = "jess";
    SO.Sampling.SampleBytes = SampleBytes;
    SocketEventSink Sock(SO);
    EXPECT_TRUE(runWorkload(Sock, SampleBytes).intact());
  }
  bool Done = false;
  for (int I = 0; I != 500 && !Done; ++I) {
    Done = H.admin("HEALTH").find("sessions_clean=1") != std::string::npos;
    if (!Done)
      ::usleep(5000);
  }
  ASSERT_TRUE(Done) << H.admin("HEALTH");
  EXPECT_NE(H.admin("HEALTH").find("decode_errors=0"), std::string::npos);

  std::string Clients = H.admin("CLIENTS");
  EXPECT_NE(Clients.find(" sample=65536 "), std::string::npos) << Clients;
  std::size_t At = Clients.find(" file=");
  ASSERT_NE(At, std::string::npos) << Clients;
  std::string Rec = Clients.substr(At + 6, Clients.find(' ', At + 6) - At - 6);

  ProfileLog Log;
  std::string Err;
  ASSERT_TRUE(replayProfile(Rec, jessBench().Prog, ProfilerConfig(), Log, &Err))
      << Err;
  ASSERT_EQ(Log.SampleRate, SampleBytes);
  ASSERT_FALSE(Log.Records.empty());
  std::uint64_t Raw = 0;
  double Est = 0;
  for (const ObjectRecord &R : Log.Records) {
    Raw += R.Bytes;
    Est += static_cast<double>(R.Bytes) * sampleWeight(R.Bytes, SampleBytes);
  }
  EXPECT_EQ(fieldValue(Clients, "raw-obj-bytes"), Raw) << Clients;
  EXPECT_EQ(fieldValue(Clients, "est-obj-bytes"),
            static_cast<std::uint64_t>(Est))
      << Clients;
  EXPECT_GT(static_cast<std::uint64_t>(Est), Raw);

  FleetAggregate Offline;
  Offline.fold("jess", analysis::DragReport(jessBench().Prog, Log));
  std::string AdminTop = H.admin("TOP 10");
  EXPECT_EQ(AdminTop, Offline.renderTop(10));
  EXPECT_NE(AdminTop.find("[sampled estimate]"), std::string::npos)
      << AdminTop;
  EXPECT_EQ(H.shutdown(), 0);
}

//===----------------------------------------------------------------------===//
// End-to-end: SIGKILL mid-stream
//===----------------------------------------------------------------------===//

TEST(Daemon, KillMidStreamFailsOverToSpoolWithoutLoss) {
  DaemonHarness H;
  // fsync per chunk: what the daemon acknowledged having (via CLIENTS)
  // is durable even through SIGKILL.
  H.start({/*FsyncEveryChunks=*/1});

  constexpr std::uint64_t KillAfter = 5;
  std::string SpoolPath = H.Dir + "/spool.jdev";

  SocketEventSink::Options SO;
  SO.Connect = H.SessionAddr;
  SO.SpoolPath = SpoolPath;
  SO.Name = "jess";
  SO.Backoff.MaxRetries = 1; // fail fast once the daemon is gone
  SO.Backoff.BaseDelayMicros = 1;
  SO.OnChunkSent = [&](std::uint64_t Count) {
    if (Count != KillAfter)
      return;
    // Wait until the daemon has *recorded* (and fsynced) all five
    // chunks, then crash it as hard as a crash gets.
    for (int I = 0; I != 1000; ++I) {
      std::string Resp, Err;
      if (adminQuery(H.AdminAddr, "CLIENTS", &Resp, &Err, 200) &&
          Resp.find(" chunks=5 ") != std::string::npos)
        break;
      ::usleep(2000);
    }
    H.killHard();
  };
  SocketEventSink Sock(SO);

  // (a) The VM run completes despite the daemon dying under it.
  StreamHealth SH = runWorkload(Sock);

  // (b) Nothing dropped: the tail failed over to the spool.
  EXPECT_TRUE(SH.intact());
  EXPECT_EQ(SH.ChunksDropped, 0u);
  EXPECT_EQ(SH.Failovers, 1u);
  EXPECT_GT(SH.SpooledChunks, 0u);
  EXPECT_EQ(Sock.chunksSent(), KillAfter);
  EXPECT_TRUE(Sock.spooling());

  // (c) The daemon's partial recording fscks with a clean salvageable
  // prefix: exactly the chunks it acknowledged, no tail damage (message
  // framing means a half-received chunk was never written).
  std::string DaemonPath = H.Dir + "/session-0-jess.jdev";
  SalvageReport Rep = scanEventFile(DaemonPath, nullptr);
  EXPECT_TRUE(Rep.readable()) << Rep.FileError;
  EXPECT_TRUE(Rep.clean());
  EXPECT_FALSE(Rep.FooterPresent); // it died before finish
  EXPECT_EQ(Rep.chunksOk(), KillAfter);

  // (d) Daemon prefix + spool together hold every event exactly once.
  std::string RefPath = H.Dir + "/ref.jdev";
  FileEventSink Ref;
  ASSERT_TRUE(Ref.open(RefPath));
  runWorkload(Ref);
  CountingConsumer Total, Head, Tail;
  std::string Err;
  ASSERT_TRUE(replayFile(RefPath, Total, &Err)) << Err;
  ASSERT_TRUE(replayFile(DaemonPath, Head, &Err)) << Err;
  ASSERT_TRUE(replayFile(SpoolPath, Tail, &Err)) << Err;
  EXPECT_GT(Tail.Events, 0u);
  EXPECT_EQ(Head.Events + Tail.Events, Total.Events);

  // (e) The spool's tail replays into a profile without crashing even
  // though it references objects allocated before the failover.
  ProfileLog TailLog;
  EXPECT_TRUE(replayProfile(SpoolPath, jessBench().Prog, ProfilerConfig(),
                            TailLog, &Err))
      << Err;
}

//===----------------------------------------------------------------------===//
// End-to-end: injected partial writes and a connection reset
//===----------------------------------------------------------------------===//

TEST(Daemon, PartialWritesAndResetAreAbsorbed) {
  DaemonHarness H;
  H.start();

  SocketEventSink::Options SO;
  SO.Connect = H.SessionAddr;
  SO.SpoolPath = H.Dir + "/spool.jdev";
  SO.Name = "jess";
  SO.Backoff.BaseDelayMicros = 100;
  // Every 3rd send() is cut to 1000 bytes; after ~300 KB the connection
  // is reset once.
  SO.Fault.ShortSendBytes = 1000;
  SO.Fault.ShortSendEvery = 3;
  SO.Fault.ResetAfterBytes = 300 * 1024;
  SocketEventSink Sock(SO);
  StreamHealth SH = runWorkload(Sock);

  // The reset cost one reconnect, not one byte: the interrupted chunk
  // was retransmitted into the fresh session.
  EXPECT_TRUE(SH.intact());
  EXPECT_EQ(SH.ChunksDropped, 0u);
  EXPECT_EQ(SH.Failovers, 0u);
  EXPECT_EQ(SH.SpooledChunks, 0u);
  EXPECT_EQ(Sock.sessionsOpened(), 2u);
  GTEST_ASSERT_GE(SH.Retries, 1u);

  // Both daemon-side session recordings are valid streams; together
  // they hold every event exactly once (the footer is swallowed for
  // the post-reset session, which is fine -- footerless v4 is valid).
  std::string RefPath = H.Dir + "/ref.jdev";
  FileEventSink Ref;
  ASSERT_TRUE(Ref.open(RefPath));
  runWorkload(Ref);
  CountingConsumer Total, A, B;
  std::string Err;
  ASSERT_TRUE(replayFile(RefPath, Total, &Err)) << Err;
  ASSERT_TRUE(replayFile(H.Dir + "/session-0-jess.jdev", A, &Err)) << Err;
  ASSERT_TRUE(replayFile(H.Dir + "/session-1-jess.jdev", B, &Err)) << Err;
  EXPECT_EQ(A.Events + B.Events, Total.Events);

  std::string Health = H.admin("HEALTH");
  EXPECT_NE(Health.find("sessions_total=2"), std::string::npos);
  EXPECT_EQ(H.shutdown(), 0);
}

//===----------------------------------------------------------------------===//
// End-to-end: unreachable at start
//===----------------------------------------------------------------------===//

TEST(Daemon, UnreachableAtStartSpoolsByteIdenticalRecording) {
  char Tmpl[] = "/tmp/jdragd_spool_XXXXXX";
  ASSERT_NE(::mkdtemp(Tmpl), nullptr);
  std::string Dir = Tmpl;

  SocketEventSink::Options SO;
  SO.Connect = "unix:" + Dir + "/nobody-home.sock";
  SO.SpoolPath = Dir + "/spool.jdev";
  SO.Name = "jess";
  SO.Backoff.MaxRetries = 1;
  SO.Backoff.BaseDelayMicros = 1;
  SO.ConnectTimeoutMs = 100;
  SocketEventSink Sock(SO);
  StreamHealth SH = runWorkload(Sock);

  EXPECT_TRUE(SH.intact());
  EXPECT_EQ(SH.Failovers, 1u);
  EXPECT_EQ(Sock.chunksSent(), 0u);
  EXPECT_EQ(Sock.sessionsOpened(), 0u);
  EXPECT_GT(SH.SpooledChunks, 0u);

  // Nothing ever reached a daemon, so the spool holds the entire stream
  // with identity sequence numbers -- including the index footer. It
  // must be byte-identical to a plain local recording.
  std::string LocalPath = Dir + "/local.jdev";
  FileEventSink File;
  ASSERT_TRUE(File.open(LocalPath));
  runWorkload(File);
  EXPECT_EQ(readAll(SO.SpoolPath), readAll(LocalPath));

  SalvageReport Rep = scanEventFile(SO.SpoolPath, nullptr);
  EXPECT_TRUE(Rep.clean());
  EXPECT_TRUE(Rep.FooterPresent);
  EXPECT_TRUE(Rep.FooterOk);
}

//===----------------------------------------------------------------------===//
// Slow consumer: Drop policy sheds instead of wedging
//===----------------------------------------------------------------------===//

TEST(SocketSink, SlowConsumerDropPolicySheds) {
  // A listener that accepts and then never reads: the kernel buffer is
  // the only sink capacity, and it runs out fast.
  char Tmpl[] = "/tmp/jdragd_slow_XXXXXX";
  ASSERT_NE(::mkdtemp(Tmpl), nullptr);
  std::string Dir = Tmpl;
  Address A;
  std::string Err;
  ASSERT_TRUE(parseAddress("unix:" + Dir + "/slow.sock", A, &Err));
  int Lfd = listenOn(A, 4, &Err);
  ASSERT_GE(Lfd, 0) << Err;

  SocketEventSink::Options SO;
  SO.Connect = A.str();
  SO.Name = "slow";
  SO.Policy = SocketEventSink::QueueFullPolicy::Drop;
  SO.SendTimeoutMs = 50; // a wedged peer should cost ms, not the default 10s
  SocketEventSink Sock(SO);
  ASSERT_TRUE(Sock.connectNow());
  int Cfd = ::accept(Lfd, nullptr, nullptr);
  ASSERT_GE(Cfd, 0);

  // Valid framed chunks (the sink parses headers for Seq bookkeeping);
  // the payload is never decoded by anyone here.
  constexpr std::size_t PayloadBytes = 64 * 1024;
  std::vector<std::byte> Frame(sizeof(ChunkHeader) + PayloadBytes);
  for (std::uint32_t Seq = 0; Seq != 64; ++Seq) {
    ChunkHeader CH;
    CH.Magic = ChunkMagic;
    CH.Seq = Seq;
    CH.PayloadBytes = PayloadBytes;
    std::memcpy(Frame.data(), &CH, sizeof(CH));
    // The sink must never refuse the chunk outright (that would mark
    // the whole stream failed); shedding is internal accounting.
    EXPECT_TRUE(Sock.writeChunk(Frame.data(), Frame.size()));
  }
  EXPECT_GT(Sock.droppedChunks(), 0u);
  EXPECT_LT(Sock.droppedChunks(), 64u); // some landed in the buffer
  EXPECT_EQ(Sock.spooledChunks(), 0u);  // shed, not failed over

  // A shed chunk leaves a gap in the session stream, so the v4 index
  // footer -- which indexes chunks the daemon never received -- must be
  // swallowed, not forwarded.
  std::vector<std::byte> Footer = encodeChunkIndexFooter({}, 0);
  EXPECT_TRUE(Sock.writeChunk(Footer.data(), Footer.size()));
  EXPECT_EQ(Sock.footersSwallowed(), 1u);

  EXPECT_FALSE(Sock.finish()); // drops => not fully delivered
  ::close(Cfd);
  ::close(Lfd);
}

//===----------------------------------------------------------------------===//
// Dribble-fed daemon: short reads on the session socket
//===----------------------------------------------------------------------===//

TEST(Daemon, DribbleFedSessionReassemblesMessages) {
  DaemonHarness H;
  H.start();

  Address A;
  std::string Err;
  ASSERT_TRUE(parseAddress(H.SessionAddr, A, &Err));
  int ErrNo = 0;
  int Fd = connectTo(A, 2000, &ErrNo);
  ASSERT_GE(Fd, 0) << std::strerror(ErrNo);

  // One complete session: HELLO (unknown benchmark -> record-only),
  // one chunk with a bogus CRC (never decoded, only recorded), BYE.
  HelloInfo Hello;
  Hello.Pid = 42;
  Hello.Name = "dribble";
  std::vector<std::byte> Wire = encodeHello(Hello);
  ChunkHeader CH;
  CH.Magic = ChunkMagic;
  CH.Seq = 0;
  CH.PayloadBytes = 32;
  appendMsgHeader(Wire, MsgType::Chunk, sizeof(CH) + 32);
  appendBytes(Wire, &CH, sizeof(CH));
  std::vector<std::byte> Payload(32, std::byte{0x5a});
  appendBytes(Wire, Payload.data(), Payload.size());
  ByeInfo Bye;
  Bye.ChunksSent = 1;
  std::vector<std::byte> ByeWire = encodeBye(Bye);
  Wire.insert(Wire.end(), ByeWire.begin(), ByeWire.end());

  // Trickle it out one byte per send.
  for (std::size_t I = 0; I != Wire.size(); ++I)
    ASSERT_EQ(::send(Fd, &Wire[I], 1, MSG_NOSIGNAL), 1);
  ::close(Fd);

  // BYE finalizes the session; poll until the daemon reports it.
  bool Clean = false;
  for (int I = 0; I != 500 && !Clean; ++I) {
    Clean = H.admin("HEALTH").find("sessions_clean=1") != std::string::npos;
    if (!Clean)
      ::usleep(5000);
  }
  EXPECT_TRUE(Clean);
  std::string Health = H.admin("HEALTH");
  EXPECT_NE(Health.find("chunks_received=1"), std::string::npos);
  EXPECT_NE(Health.find("bye_mismatches=0"), std::string::npos);
  std::string Clients = H.admin("CLIENTS");
  EXPECT_NE(Clients.find("name=dribble"), std::string::npos);
  EXPECT_NE(Clients.find("state=clean"), std::string::npos);
  EXPECT_EQ(H.shutdown(), 0);
}

//===----------------------------------------------------------------------===//
// Hostile clients
//===----------------------------------------------------------------------===//

namespace {

/// Sends HELLO and one CHUNK message holding \p CH and \p BodyBytes more
/// bytes, and expects the daemon to drop the session as a protocol
/// error without counting a chunk.
void expectChunkProtocolError(const ChunkHeader &CH, std::size_t BodyBytes) {
  DaemonHarness H;
  H.start();

  Address A;
  std::string Err;
  ASSERT_TRUE(parseAddress(H.SessionAddr, A, &Err));
  int ErrNo = 0;
  int Fd = connectTo(A, 2000, &ErrNo);
  ASSERT_GE(Fd, 0) << std::strerror(ErrNo);

  HelloInfo Hello;
  Hello.Pid = 43;
  Hello.Name = "badlen";
  std::vector<std::byte> Wire = encodeHello(Hello);
  appendMsgHeader(Wire, MsgType::Chunk,
                  static_cast<std::uint32_t>(sizeof(CH) + BodyBytes));
  appendBytes(Wire, &CH, sizeof(CH));
  std::vector<std::byte> Body(BodyBytes, std::byte{0x5a});
  appendBytes(Wire, Body.data(), Body.size());
  ASSERT_EQ(::send(Fd, Wire.data(), Wire.size(), MSG_NOSIGNAL),
            static_cast<long>(Wire.size()));

  // The daemon closes the connection; the client sees EOF.
  pollfd P{Fd, POLLIN, 0};
  ASSERT_EQ(::poll(&P, 1, 5000), 1);
  char Buf[16];
  EXPECT_EQ(::recv(Fd, Buf, sizeof(Buf), 0), 0);
  ::close(Fd);

  std::string Health = H.admin("HEALTH");
  EXPECT_NE(Health.find("protocol_errors=1"), std::string::npos);
  EXPECT_NE(Health.find("chunks_received=0"), std::string::npos);
  EXPECT_EQ(H.shutdown(), 0);
}

} // namespace

TEST(Daemon, RejectsChunkFrameLengthMismatch) {
  // A chunk whose inner header claims 64 payload bytes while the
  // message carries only 32: recording it would break the
  // chunk-aligned fsck-clean-prefix guarantee, so the daemon must treat
  // it as a protocol error and drop the session.
  ChunkHeader CH;
  CH.Magic = ChunkMagic;
  CH.Seq = 0;
  CH.PayloadBytes = 64;
  expectChunkProtocolError(CH, 32);
}

TEST(Daemon, RejectsZeroLengthDataFrame) {
  // The message length agrees, but every reader rejects an empty data
  // chunk ("implausible payload length 0"), so recording it would leave
  // a file fsck calls damaged.
  ChunkHeader CH;
  CH.Magic = ChunkMagic;
  CH.Seq = 0;
  CH.PayloadBytes = 0;
  expectChunkProtocolError(CH, 0);
}

TEST(Daemon, RejectsFooterLengthWithTheCompressedBit) {
  // Bit 31 flags a compressed *data* payload only; a footer's length
  // field is its plain length, so this one is implausible even though
  // its low bits agree with the message.
  ChunkHeader CH;
  CH.Magic = FooterMagic;
  CH.Seq = 0;
  CH.PayloadBytes = 8 | ChunkCompressedBit;
  expectChunkProtocolError(CH, 8 + 8);
}

TEST(Daemon, AdminFloodWithoutNewlineIsDisconnected) {
  DaemonHarness H;
  H.start();

  Address A;
  std::string Err;
  ASSERT_TRUE(parseAddress(H.AdminAddr, A, &Err));
  int ErrNo = 0;
  int Fd = connectTo(A, 2000, &ErrNo);
  ASSERT_GE(Fd, 0) << std::strerror(ErrNo);

  // A newline-free byte stream must not grow the daemon's pending-line
  // buffer without bound: past the cap the connection is closed.
  std::string Flood(16 * 1024, 'A');
  (void)::send(Fd, Flood.data(), Flood.size(), MSG_NOSIGNAL);
  pollfd P{Fd, POLLIN, 0};
  ASSERT_EQ(::poll(&P, 1, 5000), 1);
  // Closing with our bytes still queued may surface as ECONNRESET
  // rather than a clean EOF; both mean "disconnected".
  char Buf[16];
  long R = ::recv(Fd, Buf, sizeof(Buf), 0);
  EXPECT_TRUE(R == 0 || (R < 0 && errno == ECONNRESET));
  ::close(Fd);

  // The daemon itself is unharmed.
  EXPECT_EQ(H.admin("PING"), "PONG\n");
  EXPECT_EQ(H.shutdown(), 0);
}

TEST(Daemon, HostileIdsKeepServing) {
  DaemonHarness H;
  H.start();

  // Two CRC-valid sessions for a known benchmark, so the daemon decodes
  // them into its per-session profiler, each with one hostile object id.
  for (std::uint64_t Hostile :
       {std::uint64_t(1) << 40, std::uint64_t(1) << 62}) {
    SocketEventSink::Options SO;
    SO.Connect = H.SessionAddr;
    SO.Name = "jess";
    SocketEventSink Sock(SO);
    EventBuffer Buf(Sock);
    testutil::writeHostileIdEvents(Buf, Hostile);
    EXPECT_TRUE(Sock.finish()) << Hostile;
  }
  // A third session whose ids wrap around 2^64 within and across
  // chunks; its live decode must see the three 16-byte objects.
  {
    SocketEventSink::Options SO;
    SO.Connect = H.SessionAddr;
    SO.Name = "jess";
    SocketEventSink Sock(SO);
    EventBuffer Buf(Sock);
    testutil::writeWrappingIdEvents(Buf);
    EXPECT_TRUE(Sock.finish());
  }
  bool Done = false;
  for (int I = 0; I != 500 && !Done; ++I) {
    Done = H.admin("HEALTH").find("sessions_clean=3") != std::string::npos;
    if (!Done)
      ::usleep(5000);
  }
  ASSERT_TRUE(Done) << H.admin("HEALTH");
  EXPECT_NE(H.admin("HEALTH").find("decode_errors=0"), std::string::npos);

  // Each session folded its objects' records, which arrive finished: a
  // session keeps no state per object id.
  std::string Clients = H.admin("CLIENTS");
  std::size_t Sessions = 0;
  for (std::size_t At = Clients.find("raw-obj-bytes=");
       At != std::string::npos; At = Clients.find("raw-obj-bytes=", At + 1))
    ++Sessions;
  EXPECT_EQ(Sessions, 3u) << Clients;
  EXPECT_EQ(Clients.find("trailer-bytes="), std::string::npos) << Clients;
  EXPECT_NE(Clients.find("raw-obj-bytes=32 "), std::string::npos) << Clients;
  EXPECT_NE(Clients.find("raw-obj-bytes=48 "), std::string::npos) << Clients;

  // The wrapping session's recording replays to what the live session
  // decoded, sequentially and sharded.
  std::size_t Line = Clients.rfind('\n', Clients.find("raw-obj-bytes=48 "));
  std::size_t At = Clients.find("file=", Line == std::string::npos ? 0 : Line);
  ASSERT_NE(At, std::string::npos) << Clients;
  std::string Rec = Clients.substr(At + 5, Clients.find(' ', At) - At - 5);
  benchmarks::BenchmarkProgram Jess = benchmarks::buildJess();
  ProfileLog Seq, Par;
  std::string Err;
  ASSERT_TRUE(replayProfile(Rec, Jess.Prog, ProfilerConfig(), Seq, &Err))
      << Err;
  ASSERT_TRUE(
      testutil::replaySharded(Rec, Jess.Prog, ProfilerConfig(), 4, Par, &Err))
      << Err;
  ASSERT_EQ(Seq.Records.size(), 3u);
  testutil::expectSameProfile(Seq, Par);

  // And the daemon keeps serving: a real workload still streams through.
  SocketEventSink::Options SO;
  SO.Connect = H.SessionAddr;
  SO.Name = "jess";
  SocketEventSink Sock(SO);
  EXPECT_TRUE(runWorkload(Sock).intact());
  Done = false;
  for (int I = 0; I != 500 && !Done; ++I) {
    Done = H.admin("HEALTH").find("sessions_clean=4") != std::string::npos;
    if (!Done)
      ::usleep(5000);
  }
  EXPECT_TRUE(Done) << H.admin("HEALTH");
  EXPECT_EQ(H.admin("PING"), "PONG\n");
  EXPECT_FALSE(H.admin("TOP 5").empty());
  EXPECT_EQ(H.shutdown(), 0);
}

TEST(Daemon, SessionOfAnotherProgramIsADecodeErrorNotACrash) {
  DaemonHarness H;
  H.start();
  auto WaitFor = [&](const char *Needle) {
    bool Done = false;
    for (int I = 0; I != 500 && !Done; ++I) {
      Done = H.admin("HEALTH").find(Needle) != std::string::npos;
      if (!Done)
        ::usleep(5000);
    }
    return Done;
  };

  // A jess recording announced as juru: the session's live decode must
  // stop at the first site that juru does not have, before the profile
  // is folded into the aggregate.
  {
    SocketEventSink::Options SO;
    SO.Connect = H.SessionAddr;
    SO.Name = "juru";
    SocketEventSink Sock(SO);
    EXPECT_TRUE(runWorkload(Sock).intact());
  }
  ASSERT_TRUE(WaitFor("sessions_clean=1")) << H.admin("HEALTH");
  EXPECT_NE(H.admin("HEALTH").find("decode_errors=1"), std::string::npos)
      << H.admin("HEALTH");

  // The daemon keeps serving, and a session of the right program folds.
  {
    SocketEventSink::Options SO;
    SO.Connect = H.SessionAddr;
    SO.Name = "jess";
    SocketEventSink Sock(SO);
    EXPECT_TRUE(runWorkload(Sock).intact());
  }
  ASSERT_TRUE(WaitFor("sessions_clean=2")) << H.admin("HEALTH");
  EXPECT_NE(H.admin("HEALTH").find("decode_errors=1"), std::string::npos);
  EXPECT_EQ(H.admin("PING"), "PONG\n");
  EXPECT_FALSE(H.admin("TOP 5").empty());
  EXPECT_EQ(H.shutdown(), 0);
}

} // namespace
