#!/usr/bin/env python3
"""The record->report pipeline benchmark.

Usage (from the repository root):

  python3 pipebench/run.py --workload churn_exact --seed 1 --seconds 60 --trace 0
  python3 pipebench/run.py --workload always_on --seed 1 --seconds 60 --trace 1
  python3 pipebench/run.py --selfcheck

Builds the driver and jdragd from source (pipebench/CMakeLists.txt) into
$CARGO_TARGET_DIR/pipebench (default .bench_build/pipebench), then repeats
record->report passes for --seconds. Every timed phase is its own fresh
child process pinned to one CPU, so each pays the heap first-touch cost a
user pays on every `jdrag record`, and peak RSS is per phase. The
record, report and end-to-end times are the mean of the fastest tenth of
the passes; every other metric is the median over the passes. Outputs are
checked on every pass; failures count into `failed`/`attempted` (the fail
ratio).

--trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
metrics: it interleaves untraced passes (the coverage denominators) with
traced passes that time each layer by itself on the captured stream,
writes the spans as a Chrome trace-event file, and prints how much of
record_s and report_s the layers cover.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. See pipebench/README.md for workloads, metrics and the layer map.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The paper programs scaled up so one phase takes ~0.1-0.7 s: short enough
# for dozens of passes per run. The seed moves each input within a band of
# about 1%, so total allocation stays nearly constant while the stream
# still changes with the seed.
WORKLOADS = {
    # jack x10: ~330 K allocations, 2.5 uses per object, ~6.6 MB .jdev.
    "churn_exact": {
        "bench": "jack",
        "inputs": lambda r: [30000 + r.randrange(-300, 301),
                             r.randrange(24, 41)],
        "sample_bytes": 0,
        "async": 0,
        "daemon": False,
    },
    # euler x12: ~5 K allocations, ~800 uses per object, ~0.2 MB .jdev.
    "use_dense": {
        "bench": "euler",
        "inputs": lambda r: [4800 + r.randrange(-48, 49),
                             1800 + r.randrange(-18, 19)],
        "sample_bytes": 0,
        "async": 0,
        "daemon": False,
    },
    # javac x24, 64 KiB size-weighted sampling, async sink streaming to
    # jdragd: ~600 sampled allocations, so the seed's SampleSeed still
    # moves the stream size by only a few percent.
    "always_on": {
        "bench": "javac",
        "inputs": lambda r: [28800 + r.randrange(-288, 289), 1],
        "sample_bytes": 64 * 1024,
        "async": 1,
        "daemon": True,
    },
}

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("record_s", "s"), ("record_cpu_s", "s"),
    ("record_rss_bytes", "B"), ("jdev_bytes", "B"), ("report_s", "s"),
    ("report_cpu_s", "s"), ("report_rss_bytes", "B"), ("e2e_s", "s"),
]
# The end-to-end times reported as the mean of the fastest tenth of the
# passes; every other metric is the median over the passes.
FASTEST_TENTH = {"record_s", "record_cpu_s", "report_s", "report_cpu_s",
                 "e2e_s"}

PER_LAYER = [  # name, unit
    ("vm.plain_s", "s"), ("vm.steps", "count"), ("vm.gcs", "count"),
    ("vm.minor_faults", "count"), ("vm.sys_s", "s"),
    ("emit.nullsink_s", "s"), ("emit.events", "count"),
    ("emit.events.use", "count"), ("emit.events.alloc", "count"),
    ("emit.raw_bytes", "B"), ("emit.chunks", "count"),
    ("sampling.kept_ratio", "ratio"),
    ("encode.s", "s"), ("encode.ns_per_event", "ns"),
    ("crc.s", "s"), ("crc.bytes", "B"),
    ("lz.compress_s", "s"), ("lz.decompress_s", "s"), ("lz.raw_bytes", "B"),
    ("lz.wire_bytes", "B"), ("lz.ratio", "ratio"),
    ("lz.raw_stored_chunks", "count"),
    ("sink.file_s", "s"), ("sink.socket_s", "s"), ("sink.retries", "count"),
    ("sink.dropped_chunks", "count"),
    ("daemon.bytes_received", "B"), ("daemon.chunks", "count"),
    ("daemon.sessions_clean", "count"), ("daemon.decode_errors", "count"),
    ("daemon.top_s", "s"), ("daemon.cpu_s", "s"),
    ("decode.s", "s"), ("decode.events_per_s", "1/s"),
    ("trailers.s", "s"), ("trailers.peak", "count"),
    ("fold.s", "s"), ("fold.records", "count"), ("fold.state_bytes", "B"),
    ("render.s", "s"),
    ("trace.record_coverage", "ratio"), ("trace.report_coverage", "ratio"),
    ("trace.overhead_s", "s"),
]

MIN_PASSES = 3
CHILD_TIMEOUT_S = 150


def die(msg):
    print("pipebench: " + msg, file=sys.stderr)
    sys.exit(2)


def mono():
    return time.monotonic_ns()


# ---------------------------------------------------------------- build


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                              ".bench_build")
    return os.path.join(os.path.abspath(base), "pipebench")


def build(out):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no jdrag sources next to %s; run from a repository checkout" % HERE)
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                shutil.rmtree(os.path.join(out, "CMakeCache.txt"),
                              ignore_errors=True)
                die("configure failed, see " + log_path)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", out, "--target", "pipebench_driver",
               "jdragd", "-j", jobs]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            die("build failed, see " + log_path)
    return (os.path.join(out, "pipebench_driver"),
            os.path.join(out, "jdrag", "tools", "jdragd"))


# ---------------------------------------------------------------- processes


class Env:
    """Paths, CPU placement and the span log shared by one benchmark run."""

    def __init__(self, out, driver, jdragd):
        self.driver = driver
        self.jdragd = jdragd
        self.work = os.path.join(out, "work")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        # Children, the daemon and its admin sockets all live here.
        os.chdir(self.work)
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0
        self.rotate()
        self.spans = []  # [name, parent, start_ns, end_ns]

    def rotate(self):
        """Moves the next pass to the next CPU. Every child stays pinned to
        one CPU; rotating between passes keeps one contended core from
        skewing a whole run. The daemon gets a CPU of its own."""
        n = len(self.cpus)
        self.cpu = self.cpus[self.turn % n]
        self.daemon_cpu = self.cpus[(self.turn + 1) % n]
        self.turn += 1

    def pin(self, cpu):
        return lambda: os.sched_setaffinity(0, {cpu})

    def child(self, args, parent):
        """Runs the driver once; returns (json, cpu_s from rusage)."""
        t0 = mono()
        p = subprocess.Popen([self.driver] + args, cwd=self.work,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL,
                             preexec_fn=self.pin(self.cpu))
        timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        timer.start()
        try:
            out = p.stdout.read()
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
            p.stdout.close()
        p.returncode = os.waitstatus_to_exitcode(status)
        t1 = mono()
        self.spans.append([args[0], parent, t0, t1])
        try:
            res = json.loads(out.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            res = {"ok": False, "error": "no result (exit %d)" % p.returncode}
        if p.returncode != 0:
            res["ok"] = False
        for name, par, s, e in res.pop("spans", []):
            self.spans.append([name, par, s, e])
        return res, ru.ru_utime + ru.ru_stime


class Daemon:
    """A jdragd serving one benchmark pass, with its admin socket."""

    SOCK = "jdragd.sock"
    ADMIN = "jdragd-admin.sock"

    def __init__(self, env, name):
        self.env = env
        self.dir = os.path.join(env.work, name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        for f in (self.SOCK, self.ADMIN):
            if os.path.exists(os.path.join(env.work, f)):
                os.unlink(os.path.join(env.work, f))
        self.proc = subprocess.Popen(
            [env.jdragd, "serve", "--unix", self.SOCK, "--admin-unix",
             self.ADMIN, "--dir", self.dir],
            cwd=env.work, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            preexec_fn=env.pin(env.daemon_cpu))
        # jdragd announces "listening" once both sockets are bound.
        timer = threading.Timer(30, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stderr.readline()
        finally:
            timer.cancel()
        if b"listening" not in line:
            self.stop()
            raise RuntimeError("jdragd did not start: %r" % line)

    def admin(self, cmd):
        # Relative socket paths (cwd is the work directory) keep sun_path
        # short however deep the checkout is.
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(10)
        try:
            s.connect(self.ADMIN)
            s.sendall((cmd + "\n").encode())
            buf = b""
            while not (buf == b"END\n" or buf.endswith(b"\nEND\n")):
                chunk = s.recv(65536)
                if not chunk:
                    break
                buf += chunk
        finally:
            s.close()
        return buf.decode()[:-4]

    def health(self):
        out = {}
        for line in self.admin("HEALTH").splitlines():
            k, _, v = line.partition("=")
            if v.isdigit():
                out[k] = int(v)
        return out

    def wait_finalized(self, sessions):
        deadline = time.monotonic() + 30
        while True:
            h = self.health()
            if h.get("sessions_total", 0) >= sessions and \
                    h.get("sessions_active", 1) == 0:
                return h
            if time.monotonic() > deadline:
                return h
            time.sleep(0.001)

    def session_file(self):
        for line in self.admin("CLIENTS").splitlines():
            for field in line.split():
                if field.startswith("file="):
                    return os.path.join(self.env.work, field[5:])
        return None

    def stop(self):
        """Shuts the daemon down; returns its CPU seconds from rusage."""
        try:
            self.admin("SHUTDOWN")
        except OSError:
            self.proc.terminate()
        timer = threading.Timer(30, self.proc.kill)
        timer.start()
        try:
            self.proc.stderr.read()
            _, status, ru = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
            self.proc.stderr.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return ru.ru_utime + ru.ru_stime


# ---------------------------------------------------------------- passes


def file_digest(path):
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Bench:
    def __init__(self, env, workload, seed):
        self.env = env
        self.wl = WORKLOADS[workload]
        rng = random.Random("%s/%d" % (workload, seed))
        self.inputs = self.wl["inputs"](rng)
        self.sample_seed = rng.getrandbits(63) | 1
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.outputs = None  # the plain run's output digest
        self.oracle = None   # report digest of the --materialize oracle
        self.jdev_digest = None

    def args(self, cmd):
        a = [cmd, "--bench", self.wl["bench"],
             "--inputs", ",".join(str(i) for i in self.inputs),
             "--async", str(self.wl["async"])]
        if self.wl["sample_bytes"]:
            a += ["--sample-bytes", str(self.wl["sample_bytes"]),
                  "--sample-seed", str(self.sample_seed)]
        return a

    def check(self, ok, what):
        """Counts one checked operation; returns ok."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def plain(self):
        res, _ = self.env.child(self.args("plain"), "setup")
        if self.check(res.get("ok"), "plain run: %s" % res.get("error")):
            self.outputs = res["outputs"]
        return res

    def report(self, path, parent, materialize=False):
        a = self.args("report") + ["--jdev", path]
        if materialize:
            a.append("--materialize")
        return self.env.child(a, parent)

    def untraced_pass(self):
        """One record->report pass; returns its end-to-end sample."""
        env = self.env
        t0 = mono()
        s = {}
        daemon = None
        setup_extra = 0.0
        jdev = os.path.join(env.work, "rec.jdev")
        if os.path.exists(jdev):
            os.unlink(jdev)  # so the sink's open() times no truncation
        if self.wl["daemon"]:
            d0 = mono()
            daemon = Daemon(env, "daemon")
            setup_extra = (mono() - d0) * 1e-9
            env.spans.append(["jdragd.start", "pass", d0, mono()])
        launch = mono()
        rec_args = self.args("record") + ["--jdev", jdev]
        if daemon:
            rec_args += ["--connect", "unix:" + Daemon.SOCK]
        rec, rec_cpu = env.child(rec_args, "pass")
        ok = self.check(rec.get("ok") and rec.get("intact")
                        and rec.get("spooled_chunks") == 0,
                        "record: %s" % rec.get("error", "stream not intact"))
        self.check(rec.get("outputs") == self.outputs,
                   "record: program outputs differ from the plain run")
        path = jdev
        if daemon:
            h = daemon.wait_finalized(1)
            self.check(h.get("sessions_clean") == 1
                       and h.get("bye_mismatches") == 0
                       and h.get("decode_errors") == 0
                       and h.get("chunks_received") == rec.get("chunks_sent"),
                       "daemon session not clean: %s" % h)
            path = daemon.session_file() or jdev
            s["jdev_bytes"] = h.get("bytes_received", 0)
        elif ok:
            s["jdev_bytes"] = os.path.getsize(path)
        rep, rep_cpu = self.report(path, "pass")
        done = mono()
        if ok and os.path.exists(path):
            digest = file_digest(path)
            if self.jdev_digest is None:
                self.jdev_digest = digest
                # The oracle: the materialized O(records) path over the same
                # recording, outside every timed interval.
                orc, _ = self.report(path, "oracle", materialize=True)
                if self.check(orc.get("ok") and orc.get("materialized"),
                              "oracle: %s" % orc.get("error")):
                    self.oracle = orc["digest"]
            self.check(digest == self.jdev_digest,
                       "recording differs between passes with one seed")
        self.check(rep.get("ok") and rep.get("digest") == self.oracle,
                   "report: %s" % rep.get("error", "digest differs from the "
                                                   "materialized oracle"))
        if daemon:
            daemon.stop()
        env.spans.append(["pass", "run", t0, mono()])
        if rec.get("ok") and rep.get("ok"):
            s.update({
                "setup_s": rec["setup_s"] + setup_extra,
                "record_s": rec["record_s"],
                "record_cpu_s": rec_cpu,
                "record_rss_bytes": rec["rss_bytes"],
                "report_s": rep["report_s"],
                "report_cpu_s": rep_cpu,
                "report_rss_bytes": rep["rss_bytes"],
                "e2e_s": (done - launch) * 1e-9,
            })
        return s

    def traced_pass(self):
        """Times every layer by itself; returns the per-layer sample."""
        env = self.env
        t0 = mono()
        s = {}
        plain = self.plain()
        emit, _ = env.child(self.args("trace-emit"), "trace")
        self.check(emit.get("ok"), "trace-emit: %s" % emit.get("error"))
        daemon = Daemon(env, "trace-daemon")
        lay, _ = env.child(
            self.args("trace-layers") + [
                "--jdev", os.path.join(env.work, "trace.jdev"),
                "--connect", "unix:" + Daemon.SOCK,
                "--admin", "unix:" + Daemon.ADMIN], "trace")
        daemon_cpu = daemon.stop()
        traced = os.path.join(env.work, "trace.jdev")
        self.check(lay.get("ok") and lay.get("layers_ok"),
                   "trace-layers: %s" % lay.get("error", "a layer check failed"))
        self.check(lay.get("digest") == self.oracle,
                   "traced report differs from the oracle")
        # The traced sink must write what the record path wrote: proof
        # that the layers ran on the real input.
        self.check(os.path.exists(traced)
                   and file_digest(traced) == self.jdev_digest,
                   "traced recording differs from the recorded one")
        self.check(lay.get("socket_ok")
                   and lay.get("daemon_sessions_clean") == 1
                   and lay.get("daemon_bye_mismatches") == 0,
                   "traced daemon session not clean")
        env.spans.append(["trace.pass", "run", t0, mono()])
        if not (plain.get("ok") and emit.get("ok") and lay.get("ok")):
            return s
        events = lay["events"]
        allocs = emit["exact_allocs"] or lay["events_alloc"]
        s.update({
            "vm.plain_s": plain["run_s"], "vm.steps": plain["steps"],
            "vm.gcs": plain["gcs"], "vm.minor_faults": plain["minor_faults"],
            "vm.sys_s": plain["sys_s"],
            "emit.nullsink_s": emit["nullsink_s"], "emit.events": events,
            "emit.events.use": lay["events_use"],
            "emit.events.alloc": lay["events_alloc"],
            "emit.raw_bytes": emit["raw_bytes"], "emit.chunks": emit["chunks"],
            "sampling.kept_ratio": lay["events_alloc"] / allocs if allocs else 1,
            "encode.s": lay["encode_s"],
            "encode.ns_per_event": lay["encode_s"] * 1e9 / max(events, 1),
            "crc.s": lay["crc_s"], "crc.bytes": lay["crc_bytes"],
            "lz.compress_s": lay["lz_compress_s"],
            "lz.decompress_s": lay["lz_decompress_s"],
            "lz.raw_bytes": lay["lz_raw_bytes"],
            "lz.wire_bytes": lay["lz_wire_bytes"],
            "lz.ratio": lay["lz_raw_bytes"] / max(lay["lz_wire_bytes"], 1),
            "lz.raw_stored_chunks": lay["lz_raw_stored_chunks"],
            "sink.file_s": lay["sink_file_s"],
            "sink.socket_s": lay["sink_socket_s"],
            "sink.retries": lay["sink_retries"],
            "sink.dropped_chunks": lay["sink_dropped_chunks"],
            "daemon.bytes_received": lay["daemon_bytes_received"],
            "daemon.chunks": lay["daemon_chunks"],
            "daemon.sessions_clean": lay["daemon_sessions_clean"],
            "daemon.decode_errors": lay["daemon_decode_errors"],
            "daemon.top_s": lay["daemon_top_s"], "daemon.cpu_s": daemon_cpu,
            "decode.s": lay["decode_s"],
            "decode.events_per_s": events / lay["decode_s"],
            "trailers.s": lay["trailers_s"],
            "trailers.peak": lay["trailers_peak"],
            "fold.s": lay["fold_s"], "fold.records": lay["fold_records"],
            "fold.state_bytes": lay["fold_state_bytes"],
            "render.s": lay["render_s"],
        })
        return s


def median_of(samples, key):
    vals = [s[key] for s in samples if key in s]
    return statistics.median(vals) if vals else None


def fastest_tenth_of(samples, key):
    """Mean of the fastest tenth of the passes (at least one). Other
    tenants of the machine only ever add time, and they come and go over
    minutes, so a run's median moves with them; its fastest passes
    estimate the uncontended cost and stay put (see README, Noise)."""
    vals = sorted(s[key] for s in samples if key in s)
    return statistics.mean(vals[:max(1, len(vals) // 10)]) if vals else None


def record_layers(wl, m):
    """The record path as isolated layer calls. emit.nullsink_s already
    holds the VM, the emitter, the EventBuffer encode and the CRC."""
    sink = "sink.socket_s" if wl["daemon"] else "sink.file_s"
    return [("emit.nullsink_s", m["emit.nullsink_s"]),
            ("lz.compress_s", m["lz.compress_s"]), (sink, m[sink])]


def report_layers(m):
    """The report path as isolated layer calls. decode.s already holds the
    CRC check and the LZ decompression."""
    return [(k, m[k]) for k in ("decode.s", "trailers.s", "fold.s",
                                "render.s")]


def coverage(bench, untraced, m):
    """Adds the trace bookkeeping metrics and prints the breakdown."""
    rec = median_of(untraced, "record_s")
    rep = median_of(untraced, "report_s")
    rl = record_layers(bench.wl, m)
    pl = report_layers(m)
    rsum = sum(v for _, v in rl)
    psum = sum(v for _, v in pl)
    m["trace.record_coverage"] = rsum / rec
    m["trace.report_coverage"] = psum / rep
    m["trace.overhead_s"] = (rsum + psum) - (rec + rep)
    emitter = (m["emit.nullsink_s"] - m["vm.plain_s"] - m["encode.s"]
               - m["crc.s"])
    print("layer breakdown (medians; each layer timed by itself):")
    print("  record_s %.4f s, covered %.1f%% by:" % (rec, 100 * rsum / rec))
    for k, v in rl:
        print("    %-22s %.4f s" % (k, v))
    print("      of which vm.plain_s %.4f, encode.s %.4f, crc.s %.4f, "
          "emitter %.4f" %
          (m["vm.plain_s"], m["encode.s"], m["crc.s"], emitter))
    print("  report_s %.4f s, covered %.1f%% by:" % (rep, 100 * psum / rep))
    for k, v in pl:
        print("    %-22s %.4f s" % (k, v))
    print("      decode.s holds crc (%.4f s) and lz.decompress_s (%.4f s)" %
          (m["crc.s"], m["lz.decompress_s"]))
    gaps = {
        "record_s": "the pipeline runs the layers interleaved in one "
                    "process (shared caches, the async writer hand-off), "
                    "plus drift between the traced and untraced passes",
        "report_s": "reading the file and peeking its footer, and running "
                    "decode, trailers and fold interleaved in one pass",
    }
    for phase, total, covered in (("record_s", rec, rsum),
                                  ("report_s", rep, psum)):
        gap = total - covered
        if covered < 0.95 * total:
            print("  GAP in %s: %.4f s (%.1f%%) not covered by the layers: "
                  "%s" % (phase, gap, 100 * gap / total, gaps[phase]))
        elif covered > total:
            print("  %s: the isolated layers sum to %.1f%% of it; the "
                  "pipeline overlaps or shares work they each repeat" %
                  (phase, 100 * covered / total))


def write_trace(env, path):
    events = []
    for name, parent, start, end in env.spans:
        events.append({"name": name, "cat": parent or "run", "ph": "X",
                       "ts": start / 1e3, "dur": (end - start) / 1e3,
                       "pid": 1, "tid": 1, "args": {"parent": parent}})
    events.sort(key=lambda e: (e["ts"], -e["dur"]))
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def print_table(names, metrics, samples):
    print("%-24s %16s  %-6s %5s  %s" % ("metric", "value", "unit", "n",
                                         "statistic (median)"))
    for name, unit in names:
        v = metrics.get(name)
        if v is None:
            continue
        stat = "median"
        if name in FASTEST_TENTH:
            stat = "fastest-tenth mean (%.6g)" % median_of(samples, name)
        print("%-24s %16.6g  %-6s %5d  %s" %
              (name, v, unit, sum(1 for s in samples if name in s), stat))


def run(args):
    out = build_dir()
    driver, jdragd = build(out)
    env = Env(out, driver, jdragd)
    bench = Bench(env, args.workload, args.seed)
    start = mono()
    deadline = start + int(args.seconds * 1e9)
    bench.plain()
    untraced, traced = [], []
    pass_ns = []
    while True:
        t = mono()
        env.rotate()
        untraced.append(bench.untraced_pass())
        if args.trace:
            traced.append(bench.traced_pass())
        pass_ns.append(mono() - t)
        n = len(pass_ns)
        if n >= MIN_PASSES and mono() + statistics.median(pass_ns) > deadline:
            break
    env.spans.append(["run", "", start, mono()])

    names = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    samples = traced if args.trace else untraced
    for name, _ in names:
        stat = fastest_tenth_of if name in FASTEST_TENTH else median_of
        v = stat(samples, name)
        if v is not None:
            metrics[name] = v
    if args.trace and all(k in metrics for k in
                          ("emit.nullsink_s", "decode.s")) \
            and median_of(untraced, "record_s"):
        coverage(bench, untraced, metrics)
        trace_path = os.path.join(
            out, "trace-%s-seed%d.json" % (args.workload, args.seed))
        write_trace(env, trace_path)
        print("chrome trace (Perfetto, speedscope): " + trace_path)
    print("workload %s, seed %d, inputs %s, %d passes" %
          (args.workload, args.seed, bench.inputs, len(samples)))
    print_table(names, metrics, samples)
    fail_ratio = bench.failed / max(bench.attempted, 1)
    print("fail_ratio %.6g (%d of %d checks failed)" %
          (fail_ratio, bench.failed, bench.attempted))
    for p in bench.problems[:10]:
        print("  FAILED: " + p)
    missing = [n for n, _ in names if n not in metrics]
    if missing:
        bench.check(False, "metrics missing: %s" % ", ".join(missing))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in names if n in metrics},
    }
    print(json.dumps(result))
    return 0


def selfcheck(args):
    """Feeds a corrupted copy of a recording through the checked report
    path and asserts the fail ratio rises."""
    out = build_dir()
    driver, jdragd = build(out)
    env = Env(out, driver, jdragd)
    bench = Bench(env, args.workload, args.seed)
    bench.plain()
    bench.untraced_pass()
    clean = (bench.failed, bench.attempted)
    src = os.path.join(env.work, "rec.jdev")
    bad = os.path.join(env.work, "corrupt.jdev")
    data = bytearray(open(src, "rb").read())
    mid = len(data) // 2
    for i in range(mid, min(mid + 64, len(data))):
        data[i] ^= 0x5A
    with open(bad, "wb") as f:
        f.write(data)
    rep, _ = bench.report(bad, "selfcheck")
    bench.check(rep.get("ok") and rep.get("digest") == bench.oracle,
                "corrupted recording: %s" % rep.get("error", "digest differs"))
    before = clean[0] / max(clean[1], 1)
    after = bench.failed / max(bench.attempted, 1)
    print("fail_ratio clean %.4f -> with a corrupted recording %.4f" %
          (before, after))
    for p in bench.problems:
        print("  FAILED: " + p)
    if before == 0 and after > before:
        print("selfcheck passed: corruption is detected and counted")
        return 0
    print("selfcheck FAILED")
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    default="churn_exact")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="check that a corrupted recording raises the "
                         "fail ratio (uses --workload churn_exact by default)")
    args = ap.parse_args()
    if args.workload == "always_on" and args.selfcheck:
        die("--selfcheck corrupts a file recording; use a file workload")
    sys.exit(selfcheck(args) if args.selfcheck else run(args))


if __name__ == "__main__":
    main()
