#!/usr/bin/env python3
"""End-to-end smoke for .jdev chunk compression, driven through the
`jdrag` CLI the way a user would hit it:

    compress_smoke.py <jdrag-binary> <workdir>

The chain, all on the `jess` workload (deterministic replayable VM):

  1. record twice -- default (v8, compressed chunks) and
     `--compress=off` (v8 with zero compressed chunks) -- and check the
     compressed file is smaller;
  2. differential proof at the byte level: walk both files' chunk
     frames with an independent Python decoder of the LZ block format
     and require the *decompressed* data payloads, concatenated, to be
     bit-identical to the uncompressed recording's payloads;
  3. replay both recordings (sequential and --jobs 4) and require all
     four drag reports to be byte-identical;
  4. fsck both recordings clean;
  5. corrupt the compressed file with `truncate-compressed` and
     `garble-compressed-payload`, require fsck to fail on each, salvage
     each, and require fsck of the salvaged output to pass -- with the
     salvaged file still a recording carrying compressed chunks.

Exit status 0 = every step held; the first failing step prints why and
exits 1. No temp files outside <workdir>.
"""

import os
import struct
import subprocess
import sys

CURRENT_VERSION = 8        # the only .jdev version jdrag writes
CHUNK_MAGIC = 0x6B43646A   # "jdCk"
FOOTER_MAGIC = 0x7849646A  # "jdIx"
COMPRESSED_BIT = 0x80000000
MIN_MATCH = 4


def fail(msg):
    print(f"compress_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(argv, expect=0):
    r = subprocess.run(argv, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT)
    if (r.returncode == 0) != (expect == 0):
        fail(f"{' '.join(argv)} exited {r.returncode} (wanted "
             f"{'success' if expect == 0 else 'failure'}):\n"
             + r.stdout.decode(errors="replace"))
    return r.stdout


def lz_decompress(buf):
    """Independent mirror of support::lzDecompress (uvarint RawLen, then
    LZ4-style literal-run/match tokens). None on malformed input."""
    p, end = 0, len(buf)
    raw_len, shift = 0, 0
    while True:
        if p == end or shift >= 64:
            return None
        b = buf[p]
        p += 1
        raw_len |= (b & 0x7F) << shift
        if not (b & 0x80):
            break
        shift += 7
    out = bytearray()
    while p < end:
        token = buf[p]
        p += 1
        lits = token >> 4
        if lits == 15:
            while True:
                if p == end:
                    return None
                b = buf[p]
                p += 1
                lits += b
                if b != 0xFF:
                    break
        if end - p < lits or len(out) + lits > raw_len:
            return None
        out += buf[p:p + lits]
        p += lits
        nib = token & 0x0F
        if p == end:
            return bytes(out) if nib == 0 and len(out) == raw_len else None
        if end - p < 2:
            return None
        off = buf[p] | (buf[p + 1] << 8)
        p += 2
        mlen = nib + MIN_MATCH
        if nib == 15:
            while True:
                if p == end:
                    return None
                b = buf[p]
                p += 1
                mlen += b
                if b != 0xFF:
                    break
        if off == 0 or off > len(out) or len(out) + mlen > raw_len:
            return None
        start = len(out) - off
        for i in range(mlen):
            out.append(out[start + i])
    return None


def read_stream(path):
    """(version, [(compressed?, payload bytes)] for data chunks only,
    compressed-chunk count). Payloads are decompressed for flagged v6+
    chunks; a malformed flagged payload fails the smoke."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 12:
        fail(f"{path}: too short for a .jdev header")
    version = struct.unpack_from("<I", data, 8)[0]
    off = 32 if version >= 5 else 16
    payloads, compressed_chunks = [], 0
    while off + 16 <= len(data):
        magic, _seq, field, _crc = struct.unpack_from("<IIII", data, off)
        wire = field & ~COMPRESSED_BIT if version >= 6 else field
        if magic == FOOTER_MAGIC:
            off += 16 + wire + 8  # footer frame carries an 8-byte tail
            continue
        if magic != CHUNK_MAGIC:
            fail(f"{path}: bad chunk magic {magic:#x} at offset {off}")
        body = data[off + 16:off + 16 + wire]
        if len(body) != wire:
            fail(f"{path}: truncated chunk at offset {off}")
        if version >= 6 and field & COMPRESSED_BIT:
            compressed_chunks += 1
            body = lz_decompress(body)
            if body is None:
                fail(f"{path}: chunk at offset {off} does not decompress")
        payloads.append(body)
        off += 16 + wire
    if off != len(data):
        fail(f"{path}: {len(data) - off} trailing bytes after last frame")
    return version, payloads, compressed_chunks


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    jdrag, work = sys.argv[1], sys.argv[2]
    corrupt = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "corrupt_jdev.py")
    os.makedirs(work, exist_ok=True)
    comp = os.path.join(work, "jess_comp.jdev")
    raw = os.path.join(work, "jess_raw.jdev")

    # 1. Paired recordings of the same deterministic run.
    run([jdrag, "record", "jess", comp])
    run([jdrag, "record", "jess", raw, "--compress=off"])
    csize, rsize = os.path.getsize(comp), os.path.getsize(raw)
    if csize >= rsize:
        fail(f"compressed recording is not smaller: {csize} >= {rsize}")
    print(f"compress_smoke: {rsize} -> {csize} bytes "
          f"({rsize / csize:.2f}x)")

    # 2. Bit-identical decompressed payloads.
    cver, cpayloads, cchunks = read_stream(comp)
    rver, rpayloads, rchunks = read_stream(raw)
    if cver != CURRENT_VERSION:
        fail(f"default recording is v{cver}, expected v{CURRENT_VERSION}")
    if rver != CURRENT_VERSION or rchunks != 0:
        fail(f"--compress=off recording is v{rver} with {rchunks} "
             f"compressed chunks, expected v{CURRENT_VERSION} with none")
    if cchunks == 0:
        fail("default recording has no compressed chunks")
    if b"".join(cpayloads) != b"".join(rpayloads):
        fail("decompressed payloads differ from the uncompressed "
             "recording")
    print(f"compress_smoke: {cchunks} compressed chunks decompress "
          "bit-identical to the uncompressed recording")

    # 3. Replay reports agree across format and sharding.
    reports = [run([jdrag, "replay", "jess", f] + jobs)
               for f in (comp, raw) for jobs in ([], ["--jobs", "4"])]
    if len(set(reports)) != 1:
        fail("replay reports differ across compressed/uncompressed or "
             "sequential/parallel")
    print("compress_smoke: replay reports identical "
          "(compressed/raw x sequential/parallel)")

    # 4. Clean fsck on both.
    run([jdrag, "fsck", comp])
    run([jdrag, "fsck", raw])

    # 5. Compressed-targeted damage -> fsck fails -> salvage recovers a
    #    still-compressed prefix that fscks clean.
    for mode in ("truncate-compressed", "garble-compressed-payload"):
        bad = os.path.join(work, f"jess_{mode}.jdev")
        fixed = os.path.join(work, f"jess_{mode}_salvaged.jdev")
        run([sys.executable, corrupt, mode, comp, bad])
        run([jdrag, "fsck", bad], expect=1)
        run([jdrag, "salvage", bad, fixed])
        run([jdrag, "fsck", fixed])
        sver, _, schunks = read_stream(fixed)
        if sver < 6 or schunks == 0:
            fail(f"salvage of {mode} damage lost compression "
                 f"(v{sver}, {schunks} compressed chunks)")
        print(f"compress_smoke: {mode}: fsck failed, salvage recovered "
              f"{schunks} compressed chunks, fsck clean")

    print("compress_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
