//===- tools/jdrag.cpp - The drag-reduction tool CLI ----------------------===//
//
// The command-line face of the library, mirroring the paper's two-phase
// tool:
//
//   jdrag list                      the built-in workloads
//   jdrag profile <bench> <log>     phase 1: run instrumented, write log
//   jdrag record <bench> <jdev>     phase 1 only: record the raw binary
//                                   event stream, no in-process profiler
//   jdrag replay <bench> <jdev>     phase 2 only: rebuild the profile
//                                   from a recording and report on it
//   jdrag fsck <jdev>               verify a recording chunk by chunk
//                                   (exit 1 on damage, 2 if unreadable)
//   jdrag salvage <in> <out>        recover the longest valid event
//                                   prefix of a damaged recording
//   jdrag report <bench> [<log>]    phase 2: drag report (from a log file
//                                   or a fresh in-process run)
//   jdrag optimize <bench>          the full loop: report -> rewrite ->
//                                   re-measure (decision log + savings)
//   jdrag timeline <bench>          reachable/in-use ASCII chart
//   jdrag static <bench>            section-5 static findings
//   jdrag disasm <bench>            program disassembly
//   jdrag hierarchy <bench>         class hierarchy (JAN-style)
//   jdrag callgraph <bench>         reachable methods + call sites
//   jdrag run <bench>               plain uninstrumented run
//                                   (--heap-stats: occupancy dump)
//
// Options after the subcommand: --interval <KB> (deep-GC period,
// default 100), --depth <N> (nested-site depth, default 4), --exact
// (exact use timestamps instead of interval snapping).
//
//===----------------------------------------------------------------------===//

#include "analysis/DragReport.h"
#include "analysis/HeapCurves.h"
#include "analysis/LagDragVoid.h"
#include "analysis/ReportPrinter.h"
#include "analysis/Savings.h"
#include "analysis/StreamingAnalysis.h"
#include "benchmarks/Benchmarks.h"
#include "ir/Assembler.h"
#include "vm/VirtualMachine.h"
#include "ir/Disassembler.h"
#include "ir/JasmPrinter.h"
#include "daemon/Protocol.h"
#include "profiler/DragProfiler.h"
#include "profiler/ParallelReplay.h"
#include "profiler/SocketEventSink.h"
#include "profiler/StreamSalvage.h"
#include "transform/AutoOptimizer.h"
#include "sa/CallGraph.h"
#include "sa/Reports.h"
#include "support/Format.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace jdrag;
using namespace jdrag::analysis;
using namespace jdrag::benchmarks;

namespace {

struct Options {
  std::uint64_t IntervalBytes = 100 * KB;
  std::uint32_t Depth = 4;
  bool Exact = false;
  bool Revised = false;   ///< dumpjasm: dump the rewritten program
  bool Async = false;     ///< record: background writer thread
  bool AsyncDrop = false; ///< record: shed chunks instead of blocking
  /// record: sample ~1 allocation per this many heap bytes (0 = exact).
  std::uint64_t SampleBytes = 0;
  /// record: PRNG seed for the sampling gap sequence.
  std::uint64_t SampleSeed = profiler::SamplingParams{}.SampleSeed;
  /// record: LZ-compress chunk payloads. On by default; --compress=off
  /// stores every chunk raw (still a v8 stream).
  bool Compress = true;
  /// sharded replay decode threads (0 = all cores): replay, report,
  /// timeline, lagdragvoid and export over a .jdev.
  unsigned Jobs = 0;
  /// replay/report/timeline/lagdragvoid/export over a .jdev: run the
  /// materialized pipeline -- one sequential replay into a record
  /// vector -- instead of the streaming fold engine (the bit-identity
  /// oracle; outputs must match byte for byte).
  bool Materialize = false;
  /// optimizeasm: write the revised .jasm here; replay: write the
  /// object log here.
  std::string OutPath;
  std::string Connect;    ///< record: stream to a jdragd at this address
  std::string Name;       ///< send: client name announced in HELLO
  bool HeapStats = false; ///< run: dump heap occupancy
  bool Gen = false;       ///< run: enable the generational policy
};

int usage() {
  std::fprintf(
      stderr,
      "usage: jdrag <command> [args] [--interval KB] [--depth N] [--exact]\n"
      "               [--jobs N]\n"
      "commands:\n"
      "  list                         available workloads\n"
      "  profile <bench> <log-file>   phase 1: write the object log\n"
      "  record <bench> <file.jdev>   phase 1: record the raw event stream\n"
      "                               (--async: background writer thread;\n"
      "                               --async-drop: shed chunks instead of\n"
      "                               blocking; --sample-bytes N: record\n"
      "                               ~1 allocation per N heap bytes (0 =\n"
      "                               exact, default; the header records\n"
      "                               N); --sample-seed S: sampling PRNG\n"
      "                               seed; --compress[=off]: LZ-compress\n"
      "                               chunk payloads (on by default; =off\n"
      "                               stores every chunk uncompressed);\n"
      "                               --connect ADDR: stream to a jdragd,\n"
      "                               file.jdev becomes the failover spool)\n"
      "  send <file.jdev> <addr>      forward a recording (e.g. a failover\n"
      "                               spool) to a jdragd (--name NAME)\n"
      "  replay <bench> <file.jdev>   phase 2: drag report from a recording\n"
      "                               (streamed like report; --jobs N decode\n"
      "                               threads, default all cores; --out LOG\n"
      "                               also writes the object log, through\n"
      "                               one sequential replay)\n"
      "  fsck <file>                  verify a .jdev recording chunk by\n"
      "                               chunk, or print an object log's\n"
      "                               delivery health (drops, retries,\n"
      "                               last errno)\n"
      "  salvage <in.jdev> <out.jdev> recover the valid prefix of a\n"
      "                               damaged recording\n"
      "  report <bench> [<file>]      phase 2: drag report from an object\n"
      "                               log (.jdlog) or event recording\n"
      "                               (.jdev; streamed in one pass --\n"
      "                               --materialize: O(records) oracle,\n"
      "                               one sequential replay, byte-identical\n"
      "                               output)\n"
      "  optimize <bench>             full profile->rewrite->measure loop\n"
      "  timeline <bench> [<.jdev>]   reachable/in-use ASCII chart (from a\n"
      "                               fresh run, or streamed off a\n"
      "                               recording; --materialize as above)\n"
      "  lagdragvoid <bench> [<.jdev>] R&R lifetime decomposition (same\n"
      "                               recording/--materialize options)\n"
      "  static <bench>               section-5 static analysis findings\n"
      "  disasm <bench>               bytecode disassembly\n"
      "  dumpjasm <bench> [<file>]    serialize to .jasm (--revised:\n"
      "                               dump the auto-rewritten program)\n"
      "  hierarchy <bench>            class hierarchy graph\n"
      "  callgraph <bench>            CHA call graph summary\n"
      "  asm <file.jasm>              assemble + verify + disassemble\n"
      "  runasm <file.jasm> [ints...] run an assembled program\n"
      "  reportasm <file.jasm> [ints.] profile + drag report for a .jasm\n"
      "  optimizeasm <file.jasm> [i..] profile + rewrite + re-measure\n"
      "                               (--out FILE: write revised .jasm)\n"
      "  export <bench> <csv> [<.jdev>] per-object records as CSV (from a\n"
      "                               fresh run, or streamed row by row\n"
      "                               off a recording; --materialize as\n"
      "                               above)\n"
      "  run <bench>                  plain uninstrumented run\n"
      "                               (--heap-stats: span and\n"
      "                               remembered-set occupancy dump;\n"
      "                               --gen: generational collection)\n");
  return 2;
}

std::optional<BenchmarkProgram> findBench(const std::string &Name) {
  for (auto &B : buildAll())
    if (B.Name == Name)
      return std::move(B);
  std::fprintf(stderr, "unknown benchmark '%s'; try `jdrag list`\n",
               Name.c_str());
  return std::nullopt;
}

profiler::ProfilerConfig profilerConfig(const Options &O) {
  profiler::ProfilerConfig PC;
  PC.SiteDepth = O.Depth;
  PC.SnapUseTimes = !O.Exact;
  return PC;
}

RunResult runProfiled(const BenchmarkProgram &B, const Options &O) {
  return profiledRun(B.Prog, B.DefaultInputs, O.IntervalBytes,
                     profilerConfig(O));
}

int cmdList() {
  for (const auto &B : buildAll())
    std::printf("%-10s %s  [%s]\n", B.Name.c_str(), B.Description.c_str(),
                B.ExpectedRewrites.c_str());
  return 0;
}

int cmdProfile(const BenchmarkProgram &B, const std::string &Path,
               const Options &O) {
  RunResult R = runProfiled(B, O);
  if (!R.Log.writeFile(Path)) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return 1;
  }
  std::printf("profiled '%s': %zu object records, %.2f MB allocated, "
              "%llu GC cycles -> %s\n",
              B.Name.c_str(), R.Log.Records.size(), toMB(R.Log.EndTime),
              static_cast<unsigned long long>(R.GCs), Path.c_str());
  return 0;
}

int cmdRecord(const BenchmarkProgram &B, const std::string &Path,
              const Options &O) {
  profiler::SamplingParams SP;
  SP.SampleBytes = O.SampleBytes;
  SP.SampleSeed = O.SampleSeed;
  // Default: record to the local file. With --connect, stream to a
  // jdragd instead and keep the positional path as the failover spool.
  profiler::FileEventSink FileSink;
  std::unique_ptr<profiler::SocketEventSink> SockSink;
  profiler::EventSink *Sink = &FileSink;
  if (!O.Connect.empty()) {
    profiler::SocketEventSink::Options SO;
    SO.Connect = O.Connect;
    SO.SpoolPath = Path;
    SO.Name = O.Name.empty() ? B.Name : O.Name;
    SO.Sampling = SP;
    SO.Compress = O.Compress;
    SockSink = std::make_unique<profiler::SocketEventSink>(SO);
    Sink = SockSink.get();
  } else {
    profiler::FileEventSink::Options FO;
    FO.Sampling = SP;
    FO.Compress = O.Compress;
    if (!FileSink.open(Path, FO)) {
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
      return 1;
    }
  }
  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = O.IntervalBytes;
  Opts.SiteDepth = O.Depth;
  Opts.Sink = Sink;
  Opts.SampleBytes = O.SampleBytes;
  Opts.SampleSeed = O.SampleSeed;
  Opts.AsyncEvents = O.Async || O.AsyncDrop;
  Opts.AsyncDropOnFull = O.AsyncDrop;
  vm::VirtualMachine VM(B.Prog, Opts);
  VM.setInputs(B.DefaultInputs);
  std::string Err;
  if (VM.run(&Err) != vm::Interpreter::Status::Ok) {
    std::fprintf(stderr, "run failed: %s\n", Err.c_str());
    return 1;
  }
  if (SockSink) {
    const profiler::StreamHealth &H = VM.streamHealth();
    std::printf("recorded '%s': %.2f MB allocated, %llu chunks to %s "
                "(%llu sessions)\n",
                B.Name.c_str(), toMB(VM.heap().clock()),
                static_cast<unsigned long long>(SockSink->chunksSent()),
                O.Connect.c_str(),
                static_cast<unsigned long long>(SockSink->sessionsOpened()));
    if (H.Failovers)
      std::fprintf(stderr,
                   "jdrag: daemon unreachable: %llu chunks (%llu bytes) "
                   "diverted to spool %s -- forward later with "
                   "`jdrag send %s %s`\n",
                   static_cast<unsigned long long>(H.SpooledChunks),
                   static_cast<unsigned long long>(H.SpooledBytes),
                   Path.c_str(), Path.c_str(), O.Connect.c_str());
  } else {
    std::printf("recorded '%s': %.2f MB allocated, %llu event bytes -> %s\n",
                B.Name.c_str(), toMB(VM.heap().clock()),
                static_cast<unsigned long long>(FileSink.bytesWritten()),
                Path.c_str());
    if (FileSink.rawPayloadBytes())
      std::printf("compression: %llu payload bytes -> %llu on disk "
                  "(%.2fx)\n",
                  static_cast<unsigned long long>(FileSink.rawPayloadBytes()),
                  static_cast<unsigned long long>(
                      FileSink.wirePayloadBytes()),
                  static_cast<double>(FileSink.rawPayloadBytes()) /
                      static_cast<double>(FileSink.wirePayloadBytes()));
  }
  if (!VM.streamIntact()) {
    const profiler::StreamHealth &H = VM.streamHealth();
    std::fprintf(stderr,
                 "jdrag: recording is INCOMPLETE: %llu chunks (%llu bytes) "
                 "dropped, last errno %d (%s)\n",
                 static_cast<unsigned long long>(H.ChunksDropped),
                 static_cast<unsigned long long>(H.BytesDropped), H.LastErrno,
                 H.LastErrno ? std::strerror(H.LastErrno) : "none");
    return 3;
  }
  return 0;
}

unsigned replayJobs(const Options &O) {
  return O.Jobs ? O.Jobs : profiler::defaultReplayJobs();
}

/// True when \p Path carries the .jdev stream magic. Everything else --
/// object logs, garbage -- stays on the commands' existing file paths.
bool isEventRecording(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  std::uint64_t Magic = 0;
  bool Ok = std::fread(&Magic, sizeof(Magic), 1, F) == 1 &&
            Magic == profiler::StreamFileMagic;
  std::fclose(F);
  return Ok;
}

/// Prints why a replay failed and returns the exit status: 2 for a
/// recording of a different program (the benchmark named on the command
/// line is wrong, a usage error), 1 for anything else.
int replayFailed(const std::string &Err) {
  std::fprintf(stderr, "replay failed: %s\n", Err.c_str());
  return profiler::isProgramMismatch(Err) ? 2 : 1;
}

/// Shared driver for report/timeline/lagdragvoid/export over a .jdev:
/// wires the CLI options into the streaming engine (or, under
/// --materialize, the O(records) oracle path) and reports failures the
/// way `replay` does. Returns 0 or the exit status of the failure.
int analyzeRecording(const BenchmarkProgram &B, const std::string &Path,
                     const Options &O, StreamAnalysisOptions &SA,
                     StreamAnalysisResult &R) {
  SA.Config = profilerConfig(O);
  SA.Jobs = replayJobs(O);
  SA.ForceMaterialize = O.Materialize;
  std::string Err;
  if (!analyzeEventStream(Path, B.Prog, SA, R, &Err))
    return replayFailed(Err);
  return 0;
}

/// fsck on an *object log* (`jdrag profile` output): print the delivery
/// accounting its footer carries -- completeness, drops, and the
/// retry/errno counters from the recording's StreamHealth.
int fsckProfileLog(const std::string &Path) {
  profiler::ProfileLog Log;
  if (!profiler::ProfileLog::readFile(Path, Log)) {
    std::fprintf(stderr, "%s: unreadable or corrupt object log\n",
                 Path.c_str());
    return 2;
  }
  std::printf("%s: object log, %zu records, %zu sites, %zu GC samples, "
              "%.2f MB end time\n",
              Path.c_str(), Log.Records.size(),
              static_cast<std::size_t>(Log.Sites.size()),
              Log.GCSamples.size(), toMB(Log.EndTime));
  std::printf("stream health: %s, %llu chunks (%llu bytes) dropped, "
              "%u retries, last errno %d (%s)\n",
              Log.Complete ? "complete" : "INCOMPLETE",
              static_cast<unsigned long long>(Log.DroppedChunks),
              static_cast<unsigned long long>(Log.DroppedBytes), Log.Retries,
              Log.LastErrno,
              Log.LastErrno ? std::strerror(Log.LastErrno) : "none");
  if (Log.SampleRate)
    std::printf("sampling: 1 allocation per ~%llu heap bytes, seed 0x%llx "
                "(records are a weighted sample)\n",
                static_cast<unsigned long long>(Log.SampleRate),
                static_cast<unsigned long long>(Log.SampleSeed));
  else
    std::printf("sampling: exact (every allocation recorded)\n");
  return Log.Complete ? 0 : 1;
}

int cmdFsck(const std::string &Path) {
  // Dispatch on the 8-byte file magic: event recordings and object logs
  // both pass through fsck, each with its own health summary.
  if (std::FILE *F = std::fopen(Path.c_str(), "rb")) {
    std::uint64_t Magic = 0;
    bool IsLog = std::fread(&Magic, sizeof(Magic), 1, F) == 1 &&
                 Magic == profiler::ProfileLogMagic;
    std::fclose(F);
    if (IsLog)
      return fsckProfileLog(Path);
  }
  profiler::SalvageReport Rep = profiler::scanEventFile(Path, nullptr);
  std::printf("%s", Rep.summary(Path).c_str());
  if (!Rep.readable())
    return 2;
  return Rep.clean() ? 0 : 1;
}

/// Forwards a `.jdev` recording -- typically a failover spool left by
/// `record --connect` -- to a jdragd, frame by frame, through the same
/// SocketEventSink the VM uses (so reconnects and backpressure apply).
int cmdSend(const std::string &Path, const std::string &Addr,
            const Options &O) {
  std::vector<std::byte> Bytes;
  if (!profiler::readWholeFile(Path, Bytes)) {
    std::fprintf(stderr, "cannot read %s\n", Path.c_str());
    return 1;
  }

  profiler::StreamHeaderInfo Hdr;
  std::string HdrErr;
  if (!profiler::parseStreamHeader(Bytes, Hdr, &HdrErr)) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), HdrErr.c_str());
    return 1;
  }
  if (profiler::legacyFormat(Hdr.Format)) {
    std::fprintf(stderr,
                 "%s: jdev v%u cannot be sent (jdragd reads v8); "
                 "rewrite it first with `jdrag salvage %s <out.jdev>`\n",
                 Path.c_str(), static_cast<unsigned>(Hdr.Format),
                 Path.c_str());
    return 1;
  }
  std::size_t HeaderBytes = profiler::streamHeaderBytes(Hdr.Format);

  profiler::SocketEventSink::Options SO;
  SO.Connect = Addr;
  SO.Name = O.Name.empty() ? std::string("spool") : O.Name;
  // Re-announce the recording's own sampling params in HELLO so the
  // daemon scales this session exactly like the original recorder.
  SO.Sampling = Hdr.Sampling;
  // Compressed frames are forwarded verbatim (SO.Compress stays off --
  // re-compressing flagged chunks would be a no-op passthrough anyway,
  // but verbatim is the contract).
  profiler::SocketEventSink Sink(SO);

  // Walk the framed stream; each frame (a chunk, or the terminal footer
  // block with its 8 tail bytes) is one writeChunk call, exactly the
  // granularity the live VM produces.
  std::size_t Off = HeaderBytes;
  std::uint64_t Frames = 0;
  while (Off < Bytes.size()) {
    profiler::ChunkFrame Fr =
        profiler::readFrame(std::span<const std::byte>(Bytes).subspan(Off));
    if (Fr.Status == profiler::ChunkStatus::BadMagic) {
      std::fprintf(stderr, "%s: bad chunk magic at offset %zu (fsck it)\n",
                   Path.c_str(), Off);
      return 1;
    }
    if (Fr.Status != profiler::ChunkStatus::Ok) {
      std::fprintf(stderr, "%s: truncated frame at offset %zu (fsck it)\n",
                   Path.c_str(), Off);
      return 1;
    }
    Sink.writeChunk(Fr.Data, Fr.Extent);
    Off += Fr.Extent;
    ++Frames;
  }
  bool Ok = Sink.finish();
  if (Sink.droppedChunks() || !Ok || !Sink.sessionsOpened()) {
    std::fprintf(stderr,
                 "jdrag: send failed: %llu/%llu frames delivered, "
                 "%llu dropped, last errno %d (%s)\n",
                 static_cast<unsigned long long>(Sink.chunksSent()),
                 static_cast<unsigned long long>(Frames),
                 static_cast<unsigned long long>(Sink.droppedChunks()),
                 Sink.lastErrno(),
                 Sink.lastErrno() ? std::strerror(Sink.lastErrno()) : "none");
    return 1;
  }
  std::printf("sent %llu frames (%zu bytes) from %s to %s as '%s'\n",
              static_cast<unsigned long long>(Frames),
              Bytes.size() - HeaderBytes, Path.c_str(), Addr.c_str(),
              SO.Name.c_str());
  return 0;
}

int cmdSalvage(const std::string &In, const std::string &Out) {
  profiler::SalvageReport Rep;
  std::string Err;
  if (!profiler::salvageEventFile(In, Out, &Rep, &Err)) {
    std::fprintf(stderr, "salvage failed: %s\n", Err.c_str());
    return 1;
  }
  std::printf("%s", Rep.summary(In).c_str());
  std::printf("wrote salvaged recording (%llu events) to %s\n",
              static_cast<unsigned long long>(Rep.EventsRecovered),
              Out.c_str());
  return 0;
}

/// The drag report of a `.jdev` recording, streamed in one pass: what
/// `replay` and `report <bench> <file.jdev>` print.
int reportRecording(const BenchmarkProgram &B, const std::string &Path,
                    const Options &O) {
  StreamAnalysisOptions SA;
  StreamAnalysisResult R;
  if (int Rc = analyzeRecording(B, Path, O, SA, R))
    return Rc;
  std::printf("%s", renderDragReport(*R.Report).c_str());
  return 0;
}

int cmdReplay(const BenchmarkProgram &B, const std::string &Path,
              const Options &O) {
  if (O.OutPath.empty())
    return reportRecording(B, Path, O);
  // The object log needs every record: one sequential replay.
  profiler::ProfileLog Log;
  std::string Err;
  if (!profiler::replayProfile(Path, B.Prog, profilerConfig(O), Log, &Err))
    return replayFailed(Err);
  if (!Log.writeFile(O.OutPath)) {
    std::fprintf(stderr, "cannot write %s\n", O.OutPath.c_str());
    return 1;
  }
  DragReport Report(B.Prog, Log);
  std::printf("%s", renderDragReport(Report).c_str());
  return 0;
}

int cmdReport(const BenchmarkProgram &B, const std::string &LogPath,
              const Options &O) {
  if (!LogPath.empty() && isEventRecording(LogPath))
    return reportRecording(B, LogPath, O);
  profiler::ProfileLog Log;
  if (!LogPath.empty()) {
    if (!profiler::ProfileLog::readFile(LogPath, Log)) {
      std::fprintf(stderr, "cannot read log %s\n", LogPath.c_str());
      return 1;
    }
  } else {
    Log = runProfiled(B, O).Log;
  }
  DragReport Report(B.Prog, Log);
  std::printf("%s", renderDragReport(Report).c_str());
  return 0;
}

int cmdOptimize(const BenchmarkProgram &B) {
  OptimizationOutcome Out = optimizeBenchmark(B);
  std::printf("%s\n", transform::renderDecisions(Out.Decisions).c_str());
  SavingsRow Row = computeSavings(Out.OriginalRun.Log, Out.RevisedRun.Log);
  std::printf("reachable integral %.4f -> %.4f MB^2; drag saving %.2f%%, "
              "space saving %.2f%%\n",
              Row.OriginalReachableMB2, Row.ReducedReachableMB2,
              Row.dragSavingRatio() * 100, Row.spaceSavingRatio() * 100);
  std::printf("results identical: %s\n",
              Out.RevisedRun.Outputs == Out.OriginalRun.Outputs ? "yes"
                                                                : "NO");
  return 0;
}

/// The timeline chart grid: 76 curve samples wide, 16 rows tall.
constexpr std::uint32_t TimelineCols = 76;

void printTimeline(const std::string &Name, ByteTime EndTime,
                   const HeapCurve &C) {
  constexpr std::uint32_t Rows = 16;
  const auto Cols = static_cast<std::uint32_t>(C.ReachableBytes.size());
  std::uint64_t Peak = C.peakReachable();
  if (!Peak)
    return;
  std::printf("'%s': %.2f MB allocated, peak reachable %.3f MB\n\n",
              Name.c_str(), toMB(EndTime), toMB(Peak));
  for (std::uint32_t Row = 0; Row != Rows; ++Row) {
    std::uint64_t Level = Peak - (Peak * Row) / Rows;
    std::string Line;
    for (std::uint32_t Col = 0; Col != Cols; ++Col) {
      char Ch = ' ';
      if (C.InUseBytes[Col] >= Level)
        Ch = '@';
      else if (C.ReachableBytes[Col] >= Level)
        Ch = '#';
      Line += Ch;
    }
    std::printf("%8.3f |%s\n", toMB(Level), Line.c_str());
  }
  std::printf("    MB   +%s\n", std::string(Cols, '-').c_str());
  std::printf("          # drag (reachable, not in use), @ in-use\n");
}

int cmdTimeline(const BenchmarkProgram &B, const std::string &JdevPath,
                const Options &O) {
  if (!JdevPath.empty()) {
    StreamAnalysisOptions SA;
    SA.WantReport = false;
    SA.CurveSamples = TimelineCols;
    StreamAnalysisResult R;
    if (int Rc = analyzeRecording(B, JdevPath, O, SA, R))
      return Rc;
    printTimeline(B.Name, R.Shell->EndTime, R.Curve);
    return 0;
  }
  RunResult R = runProfiled(B, O);
  printTimeline(B.Name, R.Log.EndTime, buildHeapCurve(R.Log, TimelineCols));
  return 0;
}

int cmdLagDragVoid(const BenchmarkProgram &B, const std::string &JdevPath,
                   const Options &O) {
  if (!JdevPath.empty()) {
    StreamAnalysisOptions SA;
    SA.WantReport = false;
    SA.WantLifetimes = true;
    StreamAnalysisResult R;
    if (int Rc = analyzeRecording(B, JdevPath, O, SA, R))
      return Rc;
    std::printf("'%s' (%.2f MB allocated): %s\n", B.Name.c_str(),
                toMB(R.Shell->EndTime),
                renderDecomposition(R.Lifetimes).c_str());
    return 0;
  }
  RunResult R = runProfiled(B, O);
  LifetimeDecomposition D = decomposeLifetimes(R.Log);
  std::printf("'%s' (%.2f MB allocated): %s\n", B.Name.c_str(),
              toMB(R.Log.EndTime), renderDecomposition(D).c_str());
  return 0;
}

int cmdExport(const BenchmarkProgram &B, const std::string &Path,
              const std::string &JdevPath, const Options &O) {
  if (!JdevPath.empty()) {
    StreamAnalysisOptions SA;
    SA.WantReport = false;
    SA.ExportCsvPath = Path;
    StreamAnalysisResult R;
    if (int Rc = analyzeRecording(B, JdevPath, O, SA, R))
      return Rc;
    std::printf("wrote %zu object records to %s\n",
                static_cast<std::size_t>(R.ExportRows), Path.c_str());
    return 0;
  }
  RunResult R = runProfiled(B, O);
  CsvWriter Csv = recordsCsv(B.Prog, R.Log);
  if (!Csv.writeFile(Path)) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return 1;
  }
  std::printf("wrote %zu object records to %s\n", R.Log.Records.size(),
              Path.c_str());
  return 0;
}

int cmdStatic(const BenchmarkProgram &B) {
  sa::CallGraph CG(B.Prog);
  sa::ValueFlowAnalysis VFA(B.Prog, CG);
  sa::EffectAnalysis EA(B.Prog, CG);
  sa::StaticFindings F = sa::collectStaticFindings(B.Prog, CG, VFA, EA);
  std::printf("%s", sa::renderStaticFindings(B.Prog, F).c_str());
  return 0;
}

int cmdDumpJasm(const BenchmarkProgram &B, const std::string &Path,
                bool Revised) {
  ir::Program P = B.Prog;
  if (Revised) {
    OptimizationOutcome Out = optimizeBenchmark(B);
    P = std::move(Out.Revised);
  }
  std::string Err;
  auto Text = ir::printProgramAsJasm(P, &Err);
  if (!Text) {
    std::fprintf(stderr, "cannot serialize %s: %s\n", B.Name.c_str(),
                 Err.c_str());
    return 1;
  }
  if (Path.empty()) {
    std::printf("%s", Text->c_str());
    return 0;
  }
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return 1;
  }
  std::fputs(Text->c_str(), F);
  std::fclose(F);
  std::printf("wrote %s%s as jasm to %s\n", B.Name.c_str(),
              Revised ? " (revised)" : "", Path.c_str());
  return 0;
}

int cmdDisasm(const BenchmarkProgram &B) {
  std::printf("%s", ir::disassembleProgram(B.Prog).c_str());
  return 0;
}

int cmdHierarchy(const BenchmarkProgram &B) {
  sa::ClassHierarchy CH(B.Prog);
  std::printf("%s", CH.renderTree().c_str());
  return 0;
}

int cmdAsm(const std::string &Path) {
  std::string Err;
  auto P = ir::assembleFile(Path, &Err);
  if (!P) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), Err.c_str());
    return 1;
  }
  std::printf("%s", ir::disassembleProgram(*P).c_str());
  return 0;
}

int cmdRunAsm(const std::string &Path,
              const std::vector<std::string> &Inputs) {
  std::string Err;
  auto P = ir::assembleFile(Path, &Err);
  if (!P) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), Err.c_str());
    return 1;
  }
  vm::VirtualMachine VM(*P);
  std::vector<std::int64_t> In;
  for (const std::string &S : Inputs)
    In.push_back(std::strtoll(S.c_str(), nullptr, 0));
  VM.setInputs(In);
  if (VM.run(&Err) != vm::Interpreter::Status::Ok) {
    std::fprintf(stderr, "run failed: %s\n", Err.c_str());
    return 1;
  }
  for (std::int64_t V : VM.outputs())
    std::printf("%lld\n", static_cast<long long>(V));
  return 0;
}

int cmdReportAsm(const std::string &Path,
                 const std::vector<std::string> &Inputs, const Options &O) {
  std::string Err;
  auto P = ir::assembleFile(Path, &Err);
  if (!P) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), Err.c_str());
    return 1;
  }
  profiler::ProfilerConfig PC;
  PC.SiteDepth = O.Depth;
  PC.SnapUseTimes = !O.Exact;
  profiler::DragProfiler Prof(*P, PC);
  vm::VMOptions VOpts;
  VOpts.DeepGCIntervalBytes = O.IntervalBytes;
  Prof.attachTo(VOpts);
  vm::VirtualMachine VM(*P, VOpts);
  std::vector<std::int64_t> In;
  for (const std::string &S : Inputs)
    In.push_back(std::strtoll(S.c_str(), nullptr, 0));
  VM.setInputs(In);
  if (VM.run(&Err) != vm::Interpreter::Status::Ok) {
    std::fprintf(stderr, "run failed: %s\n", Err.c_str());
    return 1;
  }
  DragReport Report(*P, Prof.log());
  std::printf("%s", renderDragReport(Report).c_str());
  return 0;
}

std::optional<profiler::ProfileLog>
profileAssembled(const ir::Program &P, const std::vector<std::int64_t> &In,
                 const Options &O, std::vector<std::int64_t> *Out) {
  profiler::ProfilerConfig PC;
  PC.SiteDepth = O.Depth;
  PC.SnapUseTimes = !O.Exact;
  profiler::DragProfiler Prof(P, PC);
  vm::VMOptions VOpts;
  VOpts.DeepGCIntervalBytes = O.IntervalBytes;
  Prof.attachTo(VOpts);
  vm::VirtualMachine VM(P, VOpts);
  VM.setInputs(In);
  std::string Err;
  if (VM.run(&Err) != vm::Interpreter::Status::Ok) {
    std::fprintf(stderr, "run failed: %s\n", Err.c_str());
    return std::nullopt;
  }
  if (Out)
    *Out = VM.outputs();
  return Prof.takeLog();
}

int cmdOptimizeAsm(const std::string &Path,
                   const std::vector<std::string> &Inputs,
                   const Options &O) {
  std::string Err;
  auto P = ir::assembleFile(Path, &Err);
  if (!P) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), Err.c_str());
    return 1;
  }
  std::vector<std::int64_t> In;
  for (const std::string &S : Inputs)
    In.push_back(std::strtoll(S.c_str(), nullptr, 0));

  std::vector<std::int64_t> OrigOut;
  auto OrigLog = profileAssembled(*P, In, O, &OrigOut);
  if (!OrigLog)
    return 1;

  ir::Program Revised = *P;
  for (int Cycle = 0; Cycle != 2; ++Cycle) {
    std::vector<std::int64_t> Ignore;
    auto Log = profileAssembled(Revised, In, O, &Ignore);
    if (!Log)
      return 1;
    DragReport Report(Revised, *Log);
    auto Decisions = transform::autoOptimize(Revised, Report);
    std::printf("--- cycle %d decisions ---\n%s\n", Cycle + 1,
                transform::renderDecisions(Decisions).c_str());
    bool Any = false;
    for (const auto &D : Decisions)
      Any |= D.Applied;
    if (!Any)
      break;
  }

  std::vector<std::int64_t> RevOut;
  auto RevLog = profileAssembled(Revised, In, O, &RevOut);
  if (!RevLog)
    return 1;
  if (RevOut != OrigOut) {
    std::fprintf(stderr, "FATAL: revised program changed the outputs\n");
    return 1;
  }
  SavingsRow Row = computeSavings(*OrigLog, *RevLog);
  std::printf("reachable integral %.4f -> %.4f MB^2; drag saving %.2f%%, "
              "space saving %.2f%% (outputs identical)\n",
              Row.OriginalReachableMB2, Row.ReducedReachableMB2,
              Row.dragSavingRatio() * 100, Row.spaceSavingRatio() * 100);
  // Emit the revised program in its re-assemblable textual form; a
  // user keeps this file, reviews the inserted instructions, and runs
  // it straight back through `runasm`/`reportasm`.
  auto Jasm = ir::printProgramAsJasm(Revised, &Err);
  if (!Jasm) {
    std::fprintf(stderr, "cannot serialize revised program: %s\n",
                 Err.c_str());
    std::printf("--- revised program (disassembly) ---\n%s",
                ir::disassembleProgram(Revised).c_str());
    return 0;
  }
  if (O.OutPath.empty()) {
    std::printf("--- revised program (.jasm) ---\n%s", Jasm->c_str());
    return 0;
  }
  std::FILE *F = std::fopen(O.OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", O.OutPath.c_str());
    return 1;
  }
  std::fputs(Jasm->c_str(), F);
  std::fclose(F);
  std::printf("wrote revised program to %s\n", O.OutPath.c_str());
  return 0;
}

void printHeapStats(const vm::HeapOccupancy &Occ) {
  std::printf("heap backend: page-spans (%zu-byte spans, %zu records "
              "each)\n",
              Occ.SpanBytes, Occ.RecordsPerSpan);
  std::printf("handle table: %zu slots, %zu free\n", Occ.HandleSlots,
              Occ.FreeHandleSlots);
  std::printf("spans: %zu young, %zu old, %zu pooled\n", Occ.YoungSpans,
              Occ.OldSpans, Occ.PooledSpans);
  std::printf("remembered set: %zu entries, capacity %zu\n",
              Occ.RememberedEntries, Occ.RememberedCapacity);
  if (Occ.Rows.empty())
    return;
  std::printf("  %-6s %-6s %6s %8s %8s\n", "class", "gen", "spans", "live",
              "free");
  for (const vm::HeapOccupancyRow &Row : Occ.Rows)
    std::printf("  %-6u %-6s %6zu %8zu %8zu\n", Row.SizeClass,
                Row.Old ? "old" : "young", Row.Spans, Row.LiveRecords,
                Row.FreeRecords);
}

int cmdRun(const BenchmarkProgram &B, const Options &O) {
  vm::VMOptions Opts;
  Opts.Generational.Enabled = O.Gen;
  vm::VirtualMachine VM(B.Prog, Opts);
  VM.setInputs(B.DefaultInputs);
  std::string Err;
  if (VM.run(&Err) != vm::Interpreter::Status::Ok) {
    std::fprintf(stderr, "run failed: %s\n", Err.c_str());
    return 1;
  }
  std::printf("ran '%s': %.2f MB allocated, %zu outputs\n", B.Name.c_str(),
              toMB(VM.heap().clock()), VM.outputs().size());
  if (O.HeapStats)
    printHeapStats(VM.heap().occupancy());
  return 0;
}

int cmdCallGraph(const BenchmarkProgram &B) {
  sa::CallGraph CG(B.Prog);
  std::printf("reachable methods (%zu):\n", CG.reachableMethods().size());
  for (ir::MethodId M : CG.reachableMethods()) {
    std::printf("  %s\n", B.Prog.qualifiedMethodName(M).c_str());
    for (const sa::CallSite &CS : CG.callSitesIn(M)) {
      auto Targets = CG.targetsOf(M, CS.Pc);
      std::string T;
      for (ir::MethodId X : Targets) {
        if (!T.empty())
          T += ", ";
        T += B.Prog.qualifiedMethodName(X);
      }
      std::printf("    pc %-4u -> %s\n", CS.Pc, T.c_str());
    }
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Args(argv + 1, argv + argc);
  Options O;
  // Strip flag arguments. Anything starting with "--" must be a known
  // option; single-dash arguments (e.g. negative program inputs) stay
  // positional.
  std::vector<std::string> Pos;
  const char *Missing = nullptr; // value option given last
  auto Next = [&](std::size_t &I) -> const std::string & {
    static const std::string None;
    if (I + 1 < Args.size())
      return Args[++I];
    Missing = Args[I].c_str();
    return None;
  };
  for (std::size_t I = 0; I != Args.size(); ++I) {
    const std::string &A = Args[I];
    if (A == "--interval")
      O.IntervalBytes = std::strtoull(Next(I).c_str(), nullptr, 10) * KB;
    else if (A == "--depth")
      O.Depth = static_cast<std::uint32_t>(
          std::strtoul(Next(I).c_str(), nullptr, 10));
    else if (A == "--exact")
      O.Exact = true;
    else if (A == "--revised")
      O.Revised = true;
    else if (A == "--async")
      O.Async = true;
    else if (A == "--async-drop")
      O.AsyncDrop = true;
    else if (A == "--compress" || A == "--compress=on")
      O.Compress = true;
    else if (A == "--compress=off")
      O.Compress = false;
    else if (A == "--sample-bytes")
      O.SampleBytes = std::strtoull(Next(I).c_str(), nullptr, 0);
    else if (A == "--sample-seed")
      O.SampleSeed = std::strtoull(Next(I).c_str(), nullptr, 0);
    else if (A == "--jobs")
      O.Jobs = static_cast<unsigned>(
          std::strtoul(Next(I).c_str(), nullptr, 10));
    else if (A == "--materialize")
      O.Materialize = true;
    else if (A == "--out")
      O.OutPath = Next(I);
    else if (A == "--connect")
      O.Connect = Next(I);
    else if (A == "--name")
      O.Name = Next(I);
    else if (A == "--heap-stats")
      O.HeapStats = true;
    else if (A == "--gen")
      O.Gen = true;
    else if (A.starts_with("--")) {
      std::fprintf(stderr, "jdrag: unknown option '%s'\n", A.c_str());
      return usage();
    } else
      Pos.push_back(A);
  }
  if (Missing) {
    std::fprintf(stderr, "jdrag: option '%s' needs a value\n", Missing);
    return usage();
  }
  if (Pos.empty())
    return usage();
  const std::string &Cmd = Pos[0];
  if (Cmd == "list")
    return cmdList();
  if (Pos.size() < 2)
    return usage();
  if (Cmd == "asm")
    return cmdAsm(Pos[1]);
  if (Cmd == "fsck")
    return cmdFsck(Pos[1]);
  if (Cmd == "salvage")
    return Pos.size() < 3 ? usage() : cmdSalvage(Pos[1], Pos[2]);
  if (Cmd == "send")
    return Pos.size() < 3 ? usage() : cmdSend(Pos[1], Pos[2], O);
  if (Cmd == "runasm")
    return cmdRunAsm(Pos[1],
                     std::vector<std::string>(Pos.begin() + 2, Pos.end()));
  if (Cmd == "reportasm")
    return cmdReportAsm(
        Pos[1], std::vector<std::string>(Pos.begin() + 2, Pos.end()), O);
  if (Cmd == "optimizeasm")
    return cmdOptimizeAsm(
        Pos[1], std::vector<std::string>(Pos.begin() + 2, Pos.end()), O);
  auto B = findBench(Pos[1]);
  if (!B)
    return 1;
  if (Cmd == "profile")
    return Pos.size() < 3 ? usage() : cmdProfile(*B, Pos[2], O);
  if (Cmd == "record")
    return Pos.size() < 3 ? usage() : cmdRecord(*B, Pos[2], O);
  if (Cmd == "replay")
    return Pos.size() < 3 ? usage() : cmdReplay(*B, Pos[2], O);
  if (Cmd == "report")
    return cmdReport(*B, Pos.size() > 2 ? Pos[2] : "", O);
  if (Cmd == "optimize")
    return cmdOptimize(*B);
  if (Cmd == "timeline")
    return cmdTimeline(*B, Pos.size() > 2 ? Pos[2] : "", O);
  if (Cmd == "lagdragvoid")
    return cmdLagDragVoid(*B, Pos.size() > 2 ? Pos[2] : "", O);
  if (Cmd == "export")
    return Pos.size() < 3
               ? usage()
               : cmdExport(*B, Pos[2], Pos.size() > 3 ? Pos[3] : "", O);
  if (Cmd == "static")
    return cmdStatic(*B);
  if (Cmd == "disasm")
    return cmdDisasm(*B);
  if (Cmd == "dumpjasm")
    return cmdDumpJasm(*B, Pos.size() > 2 ? Pos[2] : "", O.Revised);
  if (Cmd == "hierarchy")
    return cmdHierarchy(*B);
  if (Cmd == "callgraph")
    return cmdCallGraph(*B);
  if (Cmd == "run")
    return cmdRun(*B, O);
  return usage();
}
