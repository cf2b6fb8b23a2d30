#!/usr/bin/env python3
"""Deterministic `.jdev` recording mangler for the salvage test chain.

Damages a recording in a reproducible way so `jdrag fsck` / `jdrag
salvage` can be exercised from the command line and from ctest without
shipping corrupt binaries in the repo:

    corrupt_jdev.py truncate <in> <out> [--at FRACTION]
        cut the file at FRACTION of its length (default 0.6), landing
        mid-chunk for any realistic recording;
    corrupt_jdev.py bitflip <in> <out> [--at FRACTION] [--bit N]
        XOR one bit (default bit 4) of the byte at FRACTION of the
        file (default 0.6) -- a CRC-detectable single-bit error;
    corrupt_jdev.py zero <in> <out> [--at FRACTION] [--len N]
        overwrite N bytes (default 16, one chunk header) with zeros at
        FRACTION of the file -- kills a chunk magic, forcing resync.
    corrupt_jdev.py truncate-footer <in> <out>
        cut the file midway through the v4 chunk index footer frame --
        the crash-while-writing-the-footer case; every data chunk stays
        a clean salvageable prefix;
    corrupt_jdev.py lie-footer-tail <in> <out>
        keep the footer tail magic but rewrite the adjacent block-size
        word to a lie -- the footer locator must reject it (instead of
        seeking into the middle of a chunk) and readers must fall back
        to rebuilding the index from the chunk frames.
    corrupt_jdev.py truncate-compressed <in> <out>
        cut the file midway through the payload of the first
        *compressed* chunk -- a torn compressed frame; everything
        before it stays a clean salvageable prefix (v6+ input only);
    corrupt_jdev.py garble-compressed-payload <in> <out>
        overwrite the leading bytes of the first compressed chunk
        payload with 0xFF, turning its declared uncompressed length
        into an impossible value -- the chunk header and CRC field
        survive intact but the payload must fail decompression, not
        just the CRC check (v6+ input only).

Offsets are clamped past the file header (16 bytes through v4, 32 from
v5 on, including the v8 recordings jdrag writes) so the damage lands in
the chunk stream (file-header damage is the trivially detected case).
v6+ chunk headers keep the on-wire payload length in the low 31 bits of
the PayloadBytes field; bit 31 is the compressed flag, and every walk
here masks it off before advancing. v7 and v8 change only the record
bytes inside a payload, which nothing here parses.
No randomness anywhere: the same input produces the same output.
"""

import argparse
import struct
import sys

CHUNK_MAGIC = 0x6B43646A   # "jdCk"
FOOTER_MAGIC = 0x7849646A  # "jdIx"
COMPRESSED_BIT = 0x80000000


def stream_version(data: bytes) -> int:
    """The u32 version word after the 8-byte file magic (0 if the file
    is too short to carry one -- callers then fall back to v2 rules)."""
    if len(data) < 12:
        return 0
    return struct.unpack_from("<I", data, 8)[0]


def header_bytes(version: int) -> int:
    """16 bytes (magic, version, reserved) through v4; v5 and later
    append u64 SampleBytes + u64 SampleSeed for 32."""
    return 32 if version >= 5 else 16


def wire_len(payload_field: int, version: int) -> int:
    """On-wire payload bytes of a chunk: v6 and later keep them in the
    low 31 bits (bit 31 = compressed flag); earlier formats use the raw
    word."""
    return payload_field & ~COMPRESSED_BIT if version >= 6 else payload_field


def clamp_offset(data: bytes, fraction: float, hdr: int) -> int:
    off = int(len(data) * fraction)
    return max(hdr, min(off, len(data) - 1))


def find_footer(data: bytes, hdr: int, version: int):
    """Offset of the v4 chunk index footer frame, walking the chunk
    headers from the front; None if the recording has no footer."""
    off = hdr
    while off + 16 <= len(data):
        magic, _seq, payload, _crc = struct.unpack_from("<IIII", data, off)
        if magic == FOOTER_MAGIC:
            return off
        if magic != CHUNK_MAGIC:
            return None
        off += 16 + wire_len(payload, version)
    return None


def find_compressed_chunk(data: bytes, hdr: int, version: int, target: int):
    """(offset, on-wire payload bytes) of the compressed data chunk
    covering byte \\p target -- or the nearest one before it, so the
    damage leaves a non-trivial clean prefix. None when the file is
    pre-v6 or nothing is flagged."""
    if version < 6:
        return None
    best = None
    off = hdr
    while off + 16 <= len(data):
        magic, _seq, payload, _crc = struct.unpack_from("<IIII", data, off)
        if magic != CHUNK_MAGIC:
            break
        wl = wire_len(payload, version)
        if payload & COMPRESSED_BIT:
            best = (off, wl)
            if off + 16 + wl > target:
                break
        off += 16 + wl
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=["truncate", "bitflip", "zero",
                                     "truncate-footer", "lie-footer-tail",
                                     "truncate-compressed",
                                     "garble-compressed-payload"])
    ap.add_argument("infile")
    ap.add_argument("outfile")
    ap.add_argument("--at", type=float, default=0.6,
                    help="damage position as a fraction of file length")
    ap.add_argument("--bit", type=int, default=4,
                    help="bit to flip (bitflip mode)")
    ap.add_argument("--len", type=int, default=16, dest="length",
                    help="bytes to zero (zero mode)")
    args = ap.parse_args()

    with open(args.infile, "rb") as f:
        data = bytearray(f.read())
    version = stream_version(data)
    hdr = header_bytes(version)
    if len(data) <= hdr:
        print(f"{args.infile}: too short to be a recording", file=sys.stderr)
        return 2

    if args.mode in ("truncate-footer", "lie-footer-tail"):
        off = find_footer(data, hdr, version)
        if off is None:
            print(f"{args.infile}: no chunk index footer (not v4, or "
                  "already footerless)", file=sys.stderr)
            return 2
        _, _, payload, _ = struct.unpack_from("<IIII", data, off)
        if args.mode == "truncate-footer":
            # Keep the footer header and half its payload: an
            # unmistakably started, unmistakably unfinished footer.
            data = data[:off + 16 + payload // 2]
        else:
            # The final 8 bytes are <u32 block size><u32 tail magic>.
            # Keep the magic, shrink the size by one header: it now
            # points into the footer payload, where no footer header
            # lives -- a locator that trusts it reads garbage.
            block = 16 + payload + 8
            struct.pack_into("<I", data, len(data) - 8, block - 16)
    elif args.mode in ("truncate-compressed", "garble-compressed-payload"):
        hit = find_compressed_chunk(data, hdr, version,
                                    clamp_offset(data, args.at, hdr))
        if hit is None:
            print(f"{args.infile}: no compressed chunk (pre-v6, or "
                  "recorded with --compress=off)", file=sys.stderr)
            return 2
        off, wl = hit
        if args.mode == "truncate-compressed":
            # Keep the chunk header and half its compressed payload: a
            # torn frame the reader must report as truncated, with the
            # chunks before it a clean salvageable prefix.
            data = data[:off + 16 + wl // 2]
        else:
            # The payload starts with a uvarint of the uncompressed
            # length. All-0xFF continuation bytes declare an absurd
            # length, so the decoder must reject the block outright --
            # this exercises the bad-compression path rather than the
            # CRC path (the CRC covers the *uncompressed* payload and
            # is never even computed for an undecodable block).
            n = min(8, wl)
            data[off + 16:off + 16 + n] = b"\xff" * n
            off += 16  # report the damaged byte, not the chunk header
    else:
        off = clamp_offset(data, args.at, hdr)
        if args.mode == "truncate":
            data = data[:off]
        elif args.mode == "bitflip":
            data[off] ^= 1 << (args.bit & 7)
        else:  # zero
            end = min(off + args.length, len(data))
            data[off:end] = bytes(end - off)

    with open(args.outfile, "wb") as f:
        f.write(data)
    print(f"{args.mode}: {args.infile} ({len(data)} bytes written) "
          f"@ offset {off} -> {args.outfile}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
