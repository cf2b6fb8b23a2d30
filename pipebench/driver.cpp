//===- pipebench/driver.cpp - One phase of the pipeline benchmark ---------===//
//
// The child process run.py launches for every timed phase, so each phase
// pays what a user pays on a fresh `jdrag` process (heap first-touch,
// allocator warm-up) and its peak RSS is its own. Every subcommand calls
// the library's public functions, times the call from outside, and
// prints one JSON object on stdout:
//
//   plain         run the program uninstrumented (the `vm` layer)
//   record        record a .jdev through FileEventSink, or stream it to a
//                 jdragd through SocketEventSink (--connect)
//   report        analyzeEventStream + renderDragReport over a recording
//                 (--materialize: the O(records) oracle path, untimed use)
//   trace-emit    record into a NullSink (the `emit` layer)
//   trace-layers  capture the stream in a MemorySink, then time each later
//                 layer by itself on that captured input: crc32c,
//                 lzCompress, lzDecompress, FileEventSink, FrameDecoder,
//                 EventBuffer re-encode, DragProfiler trailers, the report
//                 RecordFold, renderDragReport, and (--connect) a jdragd
//                 session fed the captured frames
//
// Common options: --bench NAME --inputs A,B --sample-bytes N
// --sample-seed S --async 0|1 --jdev PATH --connect ADDR --admin ADDR.
//
//===----------------------------------------------------------------------===//

#include "analysis/DragReport.h"
#include "analysis/RecordFold.h"
#include "analysis/ReportPrinter.h"
#include "analysis/StreamingAnalysis.h"
#include "benchmarks/Benchmarks.h"
#include "daemon/Daemon.h"
#include "profiler/DragProfiler.h"
#include "profiler/SocketEventSink.h"
#include "support/Crc32c.h"
#include "support/Lz.h"
#include "vm/VirtualMachine.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace jdrag;

namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds(std::int64_t Ns) { return static_cast<double>(Ns) * 1e-9; }

std::uint64_t fnv1a(const void *Data, std::size_t Size,
                    std::uint64_t H = 0xcbf29ce484222325ULL) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I != Size; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

std::string hex64(std::uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::uint64_t outputsDigest(const std::vector<std::int64_t> &Out) {
  return fnv1a(Out.data(), Out.size() * sizeof(std::int64_t));
}

/// A span as the trace writer needs it: name, parent name, and start/end
/// on the monotonic clock run.py also reads, so spans from every child
/// land on one timeline.
struct Span {
  std::string Name, Parent;
  std::int64_t Start = 0, End = 0;
};

/// Peak resident set of this process since exec (VmHWM). rusage's
/// ru_maxrss would also count the parent's image at fork time.
std::uint64_t peakRssBytes() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  unsigned long long Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %llu kB", &Kb) == 1)
      break;
  std::fclose(F);
  return Kb * 1024;
}

/// The JSON object a subcommand prints: flat keys, numbers and strings,
/// plus the span list.
class Result {
public:
  void num(const char *Key, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.9g", V);
    add(Key, Buf);
  }
  void count(const char *Key, std::uint64_t V) {
    add(Key, std::to_string(V));
  }
  void flag(const char *Key, bool V) { add(Key, V ? "true" : "false"); }
  void str(const char *Key, const std::string &V) {
    std::string Q = "\"";
    for (char C : V) {
      if (C == '"' || C == '\\')
        Q += '\\';
      if (static_cast<unsigned char>(C) >= 0x20)
        Q += C;
    }
    add(Key, Q + "\"");
  }
  void span(std::string Name, std::string Parent, std::int64_t Start,
            std::int64_t End) {
    Spans.push_back({std::move(Name), std::move(Parent), Start, End});
  }
  void print() {
    count("rss_bytes", peakRssBytes());
    std::string Out = "{" + Body + (Body.empty() ? "" : ", ") + "\"spans\": [";
    for (std::size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      Out += (I ? ", " : "") + std::string("[\"") + S.Name + "\", \"" +
             S.Parent + "\", " + std::to_string(S.Start) + ", " +
             std::to_string(S.End) + "]";
    }
    Out += "]}\n";
    std::fputs(Out.c_str(), stdout);
    std::fflush(stdout);
  }

private:
  void add(const char *Key, const std::string &V) {
    if (!Body.empty())
      Body += ", ";
    Body += "\"" + std::string(Key) + "\": " + V;
  }
  std::string Body;
  std::vector<Span> Spans;
};

struct Args {
  std::string Cmd, Bench, Jdev, Connect, Admin;
  std::vector<std::int64_t> Inputs;
  std::uint64_t SampleBytes = 0;
  std::uint64_t SampleSeed = profiler::SamplingParams{}.SampleSeed;
  bool Async = false;
  bool Materialize = false;
  std::int64_t StartNs = 0; ///< process entry: setup is timed from here
};

[[noreturn]] void fail(const std::string &Msg) {
  Result R;
  R.flag("ok", false);
  R.str("error", Msg);
  R.print();
  std::exit(1);
}

benchmarks::BenchmarkProgram buildBench(const std::string &Name) {
  if (Name == "jack")
    return benchmarks::buildJack();
  if (Name == "euler")
    return benchmarks::buildEuler();
  if (Name == "javac")
    return benchmarks::buildJavac();
  fail("unknown benchmark '" + Name + "'");
}

profiler::SamplingParams sampling(const Args &A) {
  profiler::SamplingParams SP;
  SP.SampleBytes = A.SampleBytes;
  SP.SampleSeed = A.SampleSeed;
  return SP;
}

/// The recording settings every workload shares with `jdrag record`: the
/// paper's 100 KB deep-GC interval, nesting depth 4, the default wire
/// format (upgraded to v5 by sampling; compression is the sink's job).
vm::VMOptions recordOptions(const Args &A, profiler::EventSink *Sink) {
  vm::VMOptions O;
  O.DeepGCIntervalBytes = 100 * KB;
  O.SiteDepth = 4;
  O.Sink = Sink;
  O.EventFormat = profiler::DefaultWireFormat;
  O.SampleBytes = A.SampleBytes;
  O.SampleSeed = A.SampleSeed;
  O.AsyncEvents = A.Async;
  return O;
}

/// The record-layer format of the emitted stream (before compression)
/// and the format of the compressed `.jdev`.
profiler::WireFormat rawFormat(const Args &A) {
  return profiler::effectiveFormat(profiler::DefaultWireFormat, sampling(A));
}
profiler::WireFormat wireFormat(const Args &A) {
  return profiler::effectiveFormat(profiler::DefaultWireFormat, sampling(A),
                                   /*Compress=*/true);
}

void runOrFail(vm::VirtualMachine &VM) {
  std::string Err;
  if (VM.run(&Err) != vm::Interpreter::Status::Ok)
    fail("run failed: " + Err);
}

struct Usage {
  std::uint64_t MinorFaults = 0;
  double SysS = 0;
};

Usage usageNow() {
  rusage R;
  getrusage(RUSAGE_SELF, &R);
  Usage U;
  U.MinorFaults = static_cast<std::uint64_t>(R.ru_minflt);
  U.SysS = R.ru_stime.tv_sec + R.ru_stime.tv_usec * 1e-6;
  return U;
}

//===----------------------------------------------------------------------===//
// Timed phases
//===----------------------------------------------------------------------===//

int cmdPlain(const Args &A) {
  Result R;
  benchmarks::BenchmarkProgram B = buildBench(A.Bench);
  // No event sink, but the recording's deep-GC schedule, so the VM's
  // share of a recording is exactly this run (and the heap stays as
  // small as the recording's).
  vm::VirtualMachine VM(B.Prog, recordOptions(A, nullptr));
  VM.setInputs(A.Inputs);
  Usage U0 = usageNow();
  std::int64_t T1 = nowNs();
  runOrFail(VM);
  std::int64_t T2 = nowNs();
  Usage U1 = usageNow();
  R.span("setup", "plain", A.StartNs, T1);
  R.span("vm", "plain", T1, T2);
  R.flag("ok", true);
  R.num("setup_s", seconds(T1 - A.StartNs));
  R.num("run_s", seconds(T2 - T1));
  R.count("steps", VM.interpreter().steps());
  R.count("gcs", VM.heap().gcCount());
  R.count("minor_faults", U1.MinorFaults - U0.MinorFaults);
  R.num("sys_s", U1.SysS - U0.SysS);
  R.str("outputs", hex64(outputsDigest(VM.outputs())));
  R.print();
  return 0;
}

int cmdRecord(const Args &A) {
  Result R;
  benchmarks::BenchmarkProgram B = buildBench(A.Bench);
  profiler::SamplingParams SP = sampling(A);
  profiler::FileEventSink FileSink;
  std::unique_ptr<profiler::SocketEventSink> Sock;
  profiler::EventSink *Sink = &FileSink;
  if (!A.Connect.empty()) {
    // The daemon is the destination; the positional path is only the
    // failover spool, and any spooling counts as a failed session.
    profiler::SocketEventSink::Options SO;
    SO.Connect = A.Connect;
    SO.SpoolPath = A.Jdev;
    SO.Name = B.Name;
    SO.Format = wireFormat(A);
    SO.Sampling = SP;
    SO.Compress = true;
    Sock = std::make_unique<profiler::SocketEventSink>(SO);
    if (!Sock->connectNow())
      fail("cannot connect to " + A.Connect);
    Sink = Sock.get();
  } else {
    profiler::FileEventSink::Options FO;
    FO.Format = wireFormat(A);
    FO.Sampling = SP;
    FO.Compress = true;
    if (!FileSink.open(A.Jdev, FO))
      fail("cannot write " + A.Jdev);
  }
  vm::VirtualMachine VM(B.Prog, recordOptions(A, Sink));
  VM.setInputs(A.Inputs);
  std::int64_t T1 = nowNs();
  runOrFail(VM); // ends with the sink's finish()
  std::int64_t T2 = nowNs();
  const profiler::StreamHealth &H = VM.streamHealth();
  R.span("setup", "record", A.StartNs, T1);
  R.span("record.run", "record", T1, T2);
  R.flag("ok", true);
  R.num("setup_s", seconds(T1 - A.StartNs));
  R.num("record_s", seconds(T2 - T1));
  R.str("outputs", hex64(outputsDigest(VM.outputs())));
  R.flag("intact", H.intact());
  R.count("chunks_written", H.ChunksWritten);
  R.count("chunks_dropped", H.ChunksDropped);
  R.count("spooled_chunks", H.SpooledChunks);
  R.count("chunks_sent", Sock ? Sock->chunksSent() : H.ChunksWritten);
  R.print();
  return 0;
}

int cmdReport(const Args &A) {
  Result R;
  benchmarks::BenchmarkProgram B = buildBench(A.Bench);
  analysis::StreamAnalysisOptions SA;
  // Every workload reports on one thread, not jdrag's all-cores default.
  SA.Jobs = 1;
  SA.ForceMaterialize = A.Materialize;
  analysis::StreamAnalysisResult SR;
  std::string Err;
  std::int64_t T1 = nowNs();
  if (!analysis::analyzeEventStream(A.Jdev, B.Prog, SA, SR, &Err))
    fail("report failed: " + Err);
  std::int64_t T2 = nowNs();
  std::string Text = analysis::renderDragReport(*SR.Report);
  std::int64_t T3 = nowNs();
  R.span("setup", "report", A.StartNs, T1);
  R.span("report.analyze", "report", T1, T2);
  R.span("report.render", "report", T2, T3);
  R.flag("ok", true);
  R.num("setup_s", seconds(T1 - A.StartNs));
  R.num("report_s", seconds(T3 - T1));
  R.str("digest", hex64(fnv1a(Text.data(), Text.size())));
  R.count("records", SR.RecordsFolded);
  R.flag("materialized", SR.Materialized);
  R.print();
  return 0;
}

//===----------------------------------------------------------------------===//
// Traced layers
//===----------------------------------------------------------------------===//

/// Counts decoded events by kind.
class KindCounter : public profiler::EventConsumer {
public:
  void onSite(profiler::SiteId, std::span<const profiler::SiteFrame>) override {
  }
  void onEvent(const profiler::EventRecord &E) override { ++Kinds[E.Kind]; }
  std::uint64_t Kinds[profiler::NumEventKinds] = {};
};

int cmdTraceEmit(const Args &A) {
  Result R;
  benchmarks::BenchmarkProgram B = buildBench(A.Bench);
  profiler::NullSink Null;
  vm::VMOptions O = recordOptions(A, &Null);
  // The emit layer itself: the emitter and EventBuffer on the VM thread.
  O.AsyncEvents = false;
  vm::VirtualMachine VM(B.Prog, O);
  VM.setInputs(A.Inputs);
  std::int64_t T1 = nowNs();
  runOrFail(VM);
  std::int64_t T2 = nowNs();
  R.span("setup", "trace.emit", A.StartNs, T1);
  R.span("emit", "trace.emit", T1, T2);
  R.flag("ok", true);
  R.num("nullsink_s", seconds(T2 - T1));
  R.count("raw_bytes", Null.bytesDiscarded());
  R.count("chunks", VM.streamHealth().ChunksWritten);
  // Sampling's base: the allocations an exact recording would log
  // (counted on a separate, untimed run).
  std::uint64_t Allocs = 0;
  if (A.SampleBytes) {
    KindCounter Count;
    profiler::DispatchSink Dispatch(Count);
    Args Exact = A;
    Exact.SampleBytes = 0;
    vm::VMOptions EO = recordOptions(Exact, &Dispatch);
    EO.AsyncEvents = false;
    vm::VirtualMachine EVM(B.Prog, EO);
    EVM.setInputs(A.Inputs);
    runOrFail(EVM);
    Allocs = Count.Kinds[static_cast<int>(profiler::EventKind::Alloc)];
  }
  R.count("exact_allocs", Allocs);
  R.print();
  return 0;
}

/// One frame of a framed chunk stream.
struct Frame {
  std::size_t Off = 0, Size = 0;
  bool Footer = false;
  profiler::ChunkHeader H;
  const std::byte *payload(std::span<const std::byte> S) const {
    return S.data() + Off + sizeof(profiler::ChunkHeader);
  }
};

/// Splits an uncompressed framed stream (what a MemorySink captured).
std::vector<Frame> splitFrames(std::span<const std::byte> S) {
  std::vector<Frame> Out;
  std::size_t Off = 0;
  while (Off < S.size()) {
    Frame F;
    if (S.size() - Off < sizeof(F.H))
      fail("torn frame header in captured stream");
    std::memcpy(&F.H, S.data() + Off, sizeof(F.H));
    F.Footer = F.H.Magic == profiler::FooterMagic;
    if (!F.Footer && F.H.Magic != profiler::ChunkMagic)
      fail("bad frame magic in captured stream");
    F.Off = Off;
    F.Size = sizeof(F.H) + F.H.PayloadBytes + (F.Footer ? 8 : 0);
    if (F.Size > S.size() - Off)
      fail("torn frame in captured stream");
    Out.push_back(F);
    Off += F.Size;
  }
  return Out;
}

/// Holds the sites and events one chunk decodes to, in stream order.
class ChunkCollector : public profiler::EventConsumer {
public:
  struct Item {
    profiler::EventRecord E;
    std::uint32_t FrameOff = 0, FrameCount = 0;
    bool Site = false;
  };
  void onSite(profiler::SiteId Id,
              std::span<const profiler::SiteFrame> F) override {
    Item I;
    I.E.Site = Id;
    I.Site = true;
    I.FrameOff = static_cast<std::uint32_t>(Frames.size());
    I.FrameCount = static_cast<std::uint32_t>(F.size());
    Frames.insert(Frames.end(), F.begin(), F.end());
    Items.push_back(I);
  }
  void onEvent(const profiler::EventRecord &E) override {
    Item I;
    I.E = E;
    Items.push_back(I);
  }
  std::span<const profiler::SiteFrame> frames(const Item &I) const {
    return {Frames.data() + I.FrameOff, I.FrameCount};
  }
  void clear() {
    Items.clear();
    Frames.clear();
  }
  std::vector<Item> Items;
  std::vector<profiler::SiteFrame> Frames;
};

class NoopConsumer : public profiler::EventConsumer {
public:
  void onSite(profiler::SiteId, std::span<const profiler::SiteFrame>) override {
  }
  void onEvent(const profiler::EventRecord &) override {}
};

class RecordBatch : public profiler::RecordSink {
public:
  void onRecord(const profiler::ObjectRecord &R) override {
    Records.push_back(R);
  }
  std::vector<profiler::ObjectRecord> Records;
};

/// Pulls `key=value` out of a jdragd admin response.
std::uint64_t adminField(const std::string &Resp, const std::string &Key) {
  std::size_t P = Resp.find(Key + "=");
  if (P == std::string::npos)
    return 0;
  return std::strtoull(Resp.c_str() + P + Key.size() + 1, nullptr, 10);
}

std::string adminOrFail(const std::string &Addr, const std::string &Cmd) {
  std::string Resp, Err;
  if (!daemon::adminQuery(Addr, Cmd, &Resp, &Err))
    fail("admin " + Cmd + ": " + Err);
  return Resp;
}

/// Streams the compressed frames to the jdragd at A.Connect the way
/// `jdrag send` forwards a spool, then measures the daemon's side.
void traceDaemon(const Args &A, const std::vector<std::vector<std::byte>> &Wire,
                 Result &R) {
  profiler::SocketEventSink::Options SO;
  SO.Connect = A.Connect;
  SO.SpoolPath = A.Jdev + ".spool";
  SO.Name = A.Bench;
  SO.Format = wireFormat(A);
  SO.Sampling = sampling(A);
  profiler::SocketEventSink Sock(SO);
  std::int64_t T0 = nowNs();
  if (!Sock.connectNow())
    fail("cannot connect to " + A.Connect);
  for (const auto &F : Wire)
    Sock.writeChunk(F.data(), F.size());
  bool Ok = Sock.finish();
  std::int64_t T1 = nowNs();
  R.span("sink.socket", "trace.record", T0, T1);
  // BYE is in flight; the daemon finalizes the session when it reads it.
  std::string Health;
  for (int Try = 0;; ++Try) {
    Health = adminOrFail(A.Admin, "HEALTH");
    if (adminField(Health, "sessions_total") >= 1 &&
        adminField(Health, "sessions_active") == 0)
      break;
    if (Try == 30000)
      fail("daemon session never finalized");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::int64_t T2 = nowNs();
  adminOrFail(A.Admin, "TOP 10");
  std::int64_t T3 = nowNs();
  R.span("daemon.top", "trace.daemon", T2, T3);
  R.num("sink_socket_s", seconds(T1 - T0));
  R.flag("socket_ok", Ok && Sock.droppedChunks() == 0 &&
                          Sock.spooledChunks() == 0);
  R.num("daemon_top_s", seconds(T3 - T2));
  R.count("daemon_bytes_received", adminField(Health, "bytes_received"));
  R.count("daemon_chunks", adminField(Health, "chunks_received"));
  R.count("daemon_sessions_clean", adminField(Health, "sessions_clean"));
  R.count("daemon_decode_errors", adminField(Health, "decode_errors"));
  R.count("daemon_bye_mismatches", adminField(Health, "bye_mismatches"));
}

int cmdTraceLayers(const Args &A) {
  Result R;
  benchmarks::BenchmarkProgram B = buildBench(A.Bench);
  profiler::SamplingParams SP = sampling(A);

  // Capture: the exact chunks the record path hands its sink.
  profiler::MemorySink Mem;
  vm::VMOptions O = recordOptions(A, &Mem);
  O.AsyncEvents = false;
  vm::VirtualMachine VM(B.Prog, O);
  VM.setInputs(A.Inputs);
  std::int64_t TC = nowNs();
  runOrFail(VM);
  R.span("capture", "trace.layers", TC, nowNs());
  std::span<const std::byte> Raw = Mem.bytes();
  std::vector<Frame> Frames = splitFrames(Raw);

  // crc: CRC-32C over every data payload, checked against its frame.
  std::uint64_t CrcBytes = 0, CrcBad = 0;
  std::int64_t T0 = nowNs();
  for (const Frame &F : Frames) {
    if (F.Footer)
      continue;
    if (support::crc32c(F.payload(Raw), F.H.PayloadBytes) != F.H.Crc)
      ++CrcBad;
    CrcBytes += F.H.PayloadBytes;
  }
  std::int64_t T1 = nowNs();
  R.span("crc", "trace.record", T0, T1);
  double CrcS = seconds(T1 - T0);

  // lz: compress every data payload, then decompress the compressed ones.
  std::vector<std::vector<std::uint8_t>> Packed(Frames.size());
  std::uint64_t LzRaw = 0, LzWire = 0, Stored = 0;
  T0 = nowNs();
  for (std::size_t I = 0; I != Frames.size(); ++I)
    if (!Frames[I].Footer)
      Packed[I] = support::lzCompress(Frames[I].payload(Raw),
                                      Frames[I].H.PayloadBytes);
  T1 = nowNs();
  R.span("lz.compress", "trace.record", T0, T1);
  double CompressS = seconds(T1 - T0);
  for (std::size_t I = 0; I != Frames.size(); ++I) {
    if (Frames[I].Footer)
      continue;
    LzRaw += Frames[I].H.PayloadBytes;
    LzWire += Packed[I].empty() ? Frames[I].H.PayloadBytes : Packed[I].size();
    Stored += Packed[I].empty();
  }
  std::vector<std::uint8_t> Inflated;
  std::uint64_t LzBad = 0;
  std::int64_t DecompressNs = 0;
  T0 = nowNs();
  for (std::size_t I = 0; I != Frames.size(); ++I) {
    if (Packed[I].empty())
      continue;
    std::int64_t S = nowNs();
    bool Ok = support::lzDecompress(Packed[I].data(), Packed[I].size(),
                                    Inflated, profiler::MaxChunkPayload);
    DecompressNs += nowNs() - S;
    if (!Ok || Inflated.size() != Frames[I].H.PayloadBytes ||
        std::memcmp(Inflated.data(), Frames[I].payload(Raw),
                    Inflated.size()) != 0)
      ++LzBad;
  }
  R.span("lz.decompress", "trace.report", T0, nowNs());

  // The on-wire frames: what FileEventSink/SocketEventSink put on disk or
  // the socket with compression on (untimed; lz.compress timed the codec).
  profiler::ChunkCompressor Comp;
  std::vector<std::vector<std::byte>> Wire;
  std::vector<std::byte> WireStream;
  for (const Frame &F : Frames) {
    std::span<const std::byte> W = Comp.transform(Raw.data() + F.Off, F.Size);
    if (W.empty())
      fail("chunk compressor refused a captured frame");
    Wire.emplace_back(W.begin(), W.end());
    WireStream.insert(WireStream.end(), W.begin(), W.end());
  }

  // sink: FileEventSink writing the compressed frames verbatim.
  profiler::FileEventSink File;
  profiler::FileEventSink::Options FO;
  FO.Format = wireFormat(A);
  FO.Sampling = SP;
  T0 = nowNs();
  if (!File.open(A.Jdev, FO))
    fail("cannot write " + A.Jdev);
  for (const auto &W : Wire)
    File.writeChunk(W.data(), W.size());
  bool FileOk = File.finish();
  T1 = nowNs();
  R.span("sink.file", "trace.record", T0, T1);
  double FileS = seconds(T1 - T0);

  // decode: FrameDecoder (CRC check, decompress, varint decode) into a
  // consumer that does nothing.
  NoopConsumer Noop;
  profiler::FrameDecoder Dec(Noop, wireFormat(A));
  T0 = nowNs();
  bool DecOk = Dec.feed(WireStream.data(), WireStream.size());
  T1 = nowNs();
  R.span("decode", "trace.report", T0, T1);
  double DecodeS = seconds(T1 - T0);
  DecOk = DecOk && Dec.atRecordBoundary() && Dec.footerSeen();
  std::uint64_t Events = Dec.eventsDecoded();

  // encode / trailers / fold, chunk by chunk: each raw chunk is decoded
  // untimed into memory, then re-encoded through an EventBuffer (CRC off:
  // crc is its own layer), fed to the DragProfiler, and its finished
  // records folded into the report's SiteGroupFold.
  ChunkCollector Col;
  profiler::FrameDecoder Split(Col, rawFormat(A));
  profiler::NullSink EncNull;
  profiler::EventBuffer Enc(EncNull, profiler::EventBuffer::DefaultChunkBytes,
                            /*Checksum=*/false, rawFormat(A));
  profiler::DragProfiler Prof(B.Prog, profiler::ProfilerConfig());
  RecordBatch Batch;
  Prof.setRecordSink(&Batch);
  analysis::SiteGroupFold Fold(SP.SampleBytes);
  std::int64_t EncodeNs = 0, TrailerNs = 0, FoldNs = 0;
  std::uint64_t Uses = 0, Allocs = 0, Records = 0;
  std::int64_t TL = nowNs();
  for (const Frame &F : Frames) {
    Col.clear();
    if (!Split.feed(Raw.data() + F.Off, F.Size))
      fail("captured stream does not decode: " + Split.error());
    std::int64_t S0 = nowNs();
    for (const ChunkCollector::Item &I : Col.Items) {
      if (I.Site)
        Enc.writeSite(I.E.Site, Col.frames(I));
      else
        Enc.writeEvent(I.E);
    }
    std::int64_t S1 = nowNs();
    for (const ChunkCollector::Item &I : Col.Items) {
      if (I.Site)
        Prof.onSite(I.E.Site, Col.frames(I));
      else
        Prof.onEvent(I.E);
    }
    std::int64_t S2 = nowNs();
    for (const profiler::ObjectRecord &Rec : Batch.Records)
      Fold.fold(Rec);
    std::int64_t S3 = nowNs();
    R.span("encode", "chunks", S0, S1);
    R.span("trailers", "chunks", S1, S2);
    R.span("fold", "chunks", S2, S3);
    EncodeNs += S1 - S0;
    TrailerNs += S2 - S1;
    FoldNs += S3 - S2;
    Records += Batch.Records.size();
    Batch.Records.clear();
    for (const ChunkCollector::Item &I : Col.Items) {
      Uses += !I.Site && I.E.kind() == profiler::EventKind::Use;
      Allocs += !I.Site && I.E.kind() == profiler::EventKind::Alloc;
    }
  }
  std::int64_t S0 = nowNs();
  Enc.finishStream();
  EncodeNs += nowNs() - S0;
  R.span("chunks", "trace.layers", TL, nowNs());

  // render: finalize the fold and print the report, as report does.
  profiler::ProfileLog Shell = Prof.takeLog();
  Shell.SampleRate = SP.SampleBytes;
  Shell.SampleSeed = SP.enabled() ? SP.SampleSeed : 0;
  Shell.Compressed = true;
  T0 = nowNs();
  analysis::DragReport Report(B.Prog, Shell, Fold.finish(B.Prog, Shell.Sites));
  std::string Text = analysis::renderDragReport(Report);
  T1 = nowNs();
  R.span("render", "trace.report", T0, T1);

  R.flag("ok", true);
  R.flag("layers_ok", CrcBad == 0 && LzBad == 0 && FileOk && DecOk);
  R.num("crc_s", CrcS);
  R.count("crc_bytes", CrcBytes);
  R.num("lz_compress_s", CompressS);
  R.num("lz_decompress_s", seconds(DecompressNs));
  R.count("lz_raw_bytes", LzRaw);
  R.count("lz_wire_bytes", LzWire);
  R.count("lz_raw_stored_chunks", Stored);
  R.num("sink_file_s", FileS);
  R.count("sink_retries", File.retries());
  R.count("sink_dropped_chunks", File.droppedChunks() + (FileOk ? 0 : 1));
  R.num("decode_s", DecodeS);
  R.count("events", Events);
  R.count("events_use", Uses);
  R.count("events_alloc", Allocs);
  R.num("encode_s", seconds(EncodeNs));
  R.num("trailers_s", seconds(TrailerNs));
  R.count("trailers_peak", Prof.peakLiveTrailers());
  R.num("fold_s", seconds(FoldNs));
  R.count("fold_records", Records);
  R.count("fold_state_bytes", Fold.stateBytes());
  R.num("render_s", seconds(T1 - T0));
  R.str("digest", hex64(fnv1a(Text.data(), Text.size())));
  if (!A.Connect.empty())
    traceDaemon(A, Wire, R);
  R.print();
  return 0;
}

std::vector<std::int64_t> parseInputs(const std::string &S) {
  std::vector<std::int64_t> Out;
  std::size_t P = 0;
  while (P < S.size()) {
    std::size_t E = S.find(',', P);
    if (E == std::string::npos)
      E = S.size();
    Out.push_back(std::strtoll(S.substr(P, E - P).c_str(), nullptr, 10));
    P = E + 1;
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  A.StartNs = nowNs();
  if (argc < 2) {
    std::fprintf(stderr, "usage: pipebench_driver <plain|record|report|"
                         "trace-emit|trace-layers> [options]\n");
    return 2;
  }
  A.Cmd = argv[1];
  for (int I = 2; I < argc; ++I) {
    std::string K = argv[I];
    if (K == "--materialize") {
      A.Materialize = true;
      continue;
    }
    if (I + 1 >= argc) {
      std::fprintf(stderr, "pipebench_driver: %s needs a value\n", K.c_str());
      return 2;
    }
    std::string V = argv[++I];
    if (K == "--bench")
      A.Bench = V;
    else if (K == "--inputs")
      A.Inputs = parseInputs(V);
    else if (K == "--sample-bytes")
      A.SampleBytes = std::strtoull(V.c_str(), nullptr, 0);
    else if (K == "--sample-seed")
      A.SampleSeed = std::strtoull(V.c_str(), nullptr, 0);
    else if (K == "--async")
      A.Async = V == "1";
    else if (K == "--jdev")
      A.Jdev = V;
    else if (K == "--connect")
      A.Connect = V;
    else if (K == "--admin")
      A.Admin = V;
    else {
      std::fprintf(stderr, "pipebench_driver: unknown option %s\n", K.c_str());
      return 2;
    }
  }
  if (A.Cmd == "plain")
    return cmdPlain(A);
  if (A.Cmd == "record")
    return cmdRecord(A);
  if (A.Cmd == "report")
    return cmdReport(A);
  if (A.Cmd == "trace-emit")
    return cmdTraceEmit(A);
  if (A.Cmd == "trace-layers")
    return cmdTraceLayers(A);
  std::fprintf(stderr, "pipebench_driver: unknown command %s\n",
               A.Cmd.c_str());
  return 2;
}
