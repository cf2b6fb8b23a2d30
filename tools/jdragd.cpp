//===- tools/jdragd.cpp - The out-of-process collector daemon -------------===//
//
// The fleet-side half of socket streaming:
//
//   jdragd serve --unix PATH | --tcp PORT    run the collector
//   jdragd top <bench> <file.jdev> [--top N] offline twin of the admin
//                                            TOP command (same code, same
//                                            bytes) for differential checks
//   jdragd query <addr> <command...>         one-shot admin query
//
// `serve` accepts instrumented-VM sessions (SocketEventSink peers),
// writes one .jdev recording per session into --dir, replays chunks
// incrementally into the fleet-wide drag table, and answers the admin
// line protocol (PING/INFO/CLIENTS/TOP/HEALTH/SHUTDOWN).
//
//===----------------------------------------------------------------------===//

#include "analysis/StreamingAnalysis.h"
#include "benchmarks/Benchmarks.h"
#include "daemon/Daemon.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace jdrag;
using namespace jdrag::daemon;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: jdragd serve (--unix PATH | --tcp PORT)\n"
      "              [--admin-unix PATH | --admin-tcp PORT]\n"
      "              [--dir DIR] [--fsync N] [--max-clients N] [--verbose]\n"
      "       jdragd top <bench> <file.jdev> [--top N]\n"
      "       jdragd query <addr> <command...>\n"
      "\n"
      "addresses are unix:PATH or tcp:HOST:PORT\n");
  return 2;
}

int cmdServe(const std::vector<std::string> &Args) {
  DaemonOptions Opt;
  bool Verbose = false;
  for (std::size_t I = 0; I != Args.size(); ++I) {
    if (Args[I] == "--unix" && I + 1 < Args.size())
      Opt.SessionAddr = "unix:" + Args[++I];
    else if (Args[I] == "--tcp" && I + 1 < Args.size())
      Opt.SessionAddr = "tcp:0.0.0.0:" + Args[++I];
    else if (Args[I] == "--admin-unix" && I + 1 < Args.size())
      Opt.AdminAddr = "unix:" + Args[++I];
    else if (Args[I] == "--admin-tcp" && I + 1 < Args.size())
      Opt.AdminAddr = "tcp:0.0.0.0:" + Args[++I];
    else if (Args[I] == "--dir" && I + 1 < Args.size())
      Opt.OutputDir = Args[++I];
    else if (Args[I] == "--fsync" && I + 1 < Args.size())
      Opt.FsyncEveryChunks = static_cast<std::uint32_t>(
          std::strtoul(Args[++I].c_str(), nullptr, 10));
    else if (Args[I] == "--max-clients" && I + 1 < Args.size())
      Opt.MaxClients =
          static_cast<int>(std::strtol(Args[++I].c_str(), nullptr, 10));
    else if (Args[I] == "--verbose")
      Verbose = true;
    else {
      std::fprintf(stderr, "jdragd: unknown serve option '%s'\n",
                   Args[I].c_str());
      return usage();
    }
  }
  if (Opt.SessionAddr.empty())
    return usage();
  Opt.Verbose = Verbose;

  // The benchmark corpus is the daemon's "symbol table": a HELLO naming
  // one of these gets live profiling; anything else is record-only.
  std::vector<benchmarks::BenchmarkProgram> Benches = benchmarks::buildAll();
  Opt.Resolve = [&Benches](const std::string &Name) -> const ir::Program * {
    for (const auto &B : Benches)
      if (B.Name == Name)
        return &B.Prog;
    return nullptr;
  };

  CollectorDaemon D(std::move(Opt));
  std::string Err;
  if (!D.start(&Err)) {
    std::fprintf(stderr, "jdragd: %s\n", Err.c_str());
    return 1;
  }
  D.installSignalHandlers();
  std::fprintf(stderr, "jdragd: listening\n");
  int Rc = D.run();
  const DaemonStats &S = D.stats();
  std::fprintf(stderr,
               "jdragd: shut down: %llu sessions (%llu clean), %llu chunks, "
               "%llu bytes\n",
               static_cast<unsigned long long>(S.SessionsTotal),
               static_cast<unsigned long long>(S.SessionsClean),
               static_cast<unsigned long long>(S.ChunksReceived),
               static_cast<unsigned long long>(S.BytesReceived));
  return Rc;
}

int cmdTop(const std::vector<std::string> &Args) {
  std::string Bench, Path;
  std::size_t N = 10;
  for (std::size_t I = 0; I != Args.size(); ++I) {
    if (Args[I] == "--top" && I + 1 < Args.size())
      N = std::strtoul(Args[++I].c_str(), nullptr, 10);
    else if (Bench.empty())
      Bench = Args[I];
    else if (Path.empty())
      Path = Args[I];
    else
      return usage();
  }
  if (Bench.empty() || Path.empty())
    return usage();
  const ir::Program *Prog = nullptr;
  std::vector<benchmarks::BenchmarkProgram> Benches = benchmarks::buildAll();
  for (const auto &B : Benches)
    if (B.Name == Bench)
      Prog = &B.Prog;
  if (!Prog) {
    std::fprintf(stderr, "jdragd: unknown benchmark '%s'\n", Bench.c_str());
    return 1;
  }
  // Deliberately the daemon's exact live pipeline: default profiler
  // config, one sequential decode whose records fold as they finish
  // (the streaming engine at Jobs 1), the same FleetAggregate rendering
  // -- so this output is byte-comparable against the admin TOP response.
  analysis::StreamAnalysisOptions SA;
  analysis::StreamAnalysisResult R;
  std::string Err;
  if (!analysis::analyzeEventStream(Path, *Prog, SA, R, &Err)) {
    std::fprintf(stderr, "jdragd: replay failed: %s\n", Err.c_str());
    return 1;
  }
  FleetAggregate Fleet;
  Fleet.fold(Bench, *R.Report);
  std::printf("%s", Fleet.renderTop(N).c_str());
  return 0;
}

int cmdQuery(const std::vector<std::string> &Args) {
  if (Args.size() < 2)
    return usage();
  std::string Cmd;
  for (std::size_t I = 1; I != Args.size(); ++I) {
    if (I != 1)
      Cmd += ' ';
    Cmd += Args[I];
  }
  std::string Resp, Err;
  if (!adminQuery(Args[0], Cmd, &Resp, &Err)) {
    std::fprintf(stderr, "jdragd: %s\n", Err.c_str());
    return 1;
  }
  std::printf("%s", Resp.c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Args(argv + 1, argv + argc);
  if (Args.empty())
    return usage();
  std::vector<std::string> Rest(Args.begin() + 1, Args.end());
  if (Args[0] == "serve")
    return cmdServe(Rest);
  if (Args[0] == "top")
    return cmdTop(Rest);
  if (Args[0] == "query")
    return cmdQuery(Rest);
  return usage();
}
