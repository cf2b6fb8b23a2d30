#!/usr/bin/env python3
"""End-to-end smoke for the streaming analysis engine, driven through
the `jdrag` CLI the way a user would hit it:

    report_smoke.py <jdrag-binary> <workdir>

The chain, on the `jess` workload (deterministic replayable VM), once
per wire fixture -- `raw` (`--compress=off`: a v8 recording with every
chunk stored uncompressed) and `lz` (default: v8, compressed chunks):

  1. record the .jdev fixture;
  2. for each of report / timeline / lagdragvoid: run the streaming
     pass, the `--materialize` oracle, and the sharded (`--jobs 4`)
     streaming pass, and require all three stdouts byte-identical;
  3. export: streaming CSV vs `--materialize` CSV, byte-identical files
     AND byte-identical stdout;
  4. cross-fixture: the raw and lz recordings describe the same run, so
     every report of one must equal the same report of the other.

Exit status 0 = every diff came back empty; the first failing step
prints both sides' context and exits 1. No temp files outside
<workdir>.
"""

import os
import subprocess
import sys


def fail(msg):
    print(f"report_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(argv):
    r = subprocess.run(argv, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT)
    if r.returncode != 0:
        fail(f"{' '.join(argv)} exited {r.returncode}:\n"
             + r.stdout.decode(errors="replace"))
    return r.stdout


def expect_same(what, a, b):
    if a != b:
        fail(f"{what}: outputs differ\n--- first ---\n"
             f"{a.decode(errors='replace')}\n--- second ---\n"
             f"{b.decode(errors='replace')}")


def main():
    if len(sys.argv) != 3:
        fail("usage: report_smoke.py <jdrag-binary> <workdir>")
    jdrag, work = sys.argv[1], sys.argv[2]
    os.makedirs(work, exist_ok=True)
    bench = "jess"

    outputs = {}  # (fixture, command) -> canonical stdout
    for fixture, extra in (("raw", ["--compress=off"]), ("lz", [])):
        jdev = os.path.join(work, f"{bench}_{fixture}.jdev")
        run([jdrag, "record", bench, jdev] + extra)

        for cmd in ("report", "timeline", "lagdragvoid"):
            streamed = run([jdrag, cmd, bench, jdev])
            oracle = run([jdrag, cmd, bench, jdev, "--materialize"])
            sharded = run([jdrag, cmd, bench, jdev, "--jobs", "4"])
            expect_same(f"{fixture} {cmd}: streaming vs --materialize",
                        streamed, oracle)
            expect_same(f"{fixture} {cmd}: streaming vs --jobs 4",
                        streamed, sharded)
            outputs[(fixture, cmd)] = streamed

        csv_s = os.path.join(work, f"{bench}_{fixture}_stream.csv")
        csv_m = os.path.join(work, f"{bench}_{fixture}_mat.csv")
        out_s = run([jdrag, "export", bench, csv_s, jdev])
        out_m = run([jdrag, "export", bench, csv_m, jdev, "--materialize"])
        # stdout differs only by the path it echoes; normalize that.
        expect_same(f"{fixture} export: stdout",
                    out_s.replace(csv_s.encode(), b"CSV"),
                    out_m.replace(csv_m.encode(), b"CSV"))
        with open(csv_s, "rb") as f:
            rows_s = f.read()
        with open(csv_m, "rb") as f:
            rows_m = f.read()
        expect_same(f"{fixture} export: CSV bytes", rows_s, rows_m)
        outputs[(fixture, "export")] = rows_s

    # The two fixtures are recordings of the same deterministic run, so
    # every analysis must agree across them too.
    for cmd in ("report", "timeline", "lagdragvoid", "export"):
        expect_same(f"raw vs lz: {cmd}", outputs[("raw", cmd)],
                    outputs[("lz", cmd)])

    print("report_smoke: OK")


if __name__ == "__main__":
    main()
