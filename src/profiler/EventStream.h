//===- profiler/EventStream.h - Binary instrumentation events ---*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event-stream pipeline decouples the instrumented VM (phase 1) from
/// the drag profiler (phase 2), the way the paper's two-phase tool and
/// production heap profilers (heapprofd-style) are structured: the VM does
/// minimal in-line work -- it appends compact binary events to a chunked
/// EventBuffer -- and a pluggable EventSink decides where the bytes go:
///
///   DispatchSink       decode chunks as they are flushed and feed an
///                      EventConsumer (attached / live profiling)
///   FileEventSink      write a `.jdev` recording for detached analysis
///   SocketEventSink    stream chunks to an out-of-process jdragd
///                      collector, degrading to a local spool file when
///                      the daemon is unreachable (SocketEventSink.h)
///   AsyncEventSink     hand chunks to a background writer thread
///                      (profiler/AsyncEventSink.h)
///   MemorySink         keep the raw stream in memory (tests, tooling)
///   TeeSink            both at once
///   NullSink           discard (overhead measurement)
///   FaultInjectionSink wrap another sink and fail on a schedule (tests)
///
/// Call chains are NOT carried per event: the VM interns each unique
/// nested site once, emits a single DefineSite record with the frames,
/// and every subsequent event refers to the 4-byte SiteId. A recording
/// is therefore self-contained: replaying a `.jdev` through the same
/// consumer rebuilds a bit-identical ProfileLog.
///
/// From v8 the stream carries the paper's trailers, not the uses that
/// build them: the VM keeps each object's trailer on its handle-side
/// record and writes it once, finished, in the object's Collect or
/// Survivor record. There are no Alloc or Use records.
///
/// Wire format (native-endian; a recording is consumed on the machine
/// that produced it): the stream is a sequence of *framed chunks*, each
/// a 16-byte ChunkHeader (magic, sequence number, payload length,
/// CRC-32C of the payload) followed by the payload. Payloads concatenate
/// into the record stream. The versions (WireFormat):
///
///   v2  every record is a fixed 40-byte EventRecord; DefineSite records
///       are followed by FrameCount 12-byte WireFrames;
///   v3  per-kind variable-length records: a tag byte (kind + inline
///       flags) followed by LEB128 varint fields, with timestamps
///       encoded as zigzag deltas against the previous record -- the
///       dominant Use/Collect events shrink from 40 to ~4-8 bytes.
///   v4  v3's record encoding made *shard-decodable*: every chunk is
///       self-contained (the time-delta chain restarts at zero in each
///       chunk, so the first timed record carries its absolute time as
///       the chunk's delta baseline; records never straddle chunk
///       boundaries) and the stream ends with a chunk index footer --
///       a specially-magic'd terminal frame listing every chunk's
///       offset, sequence, CRC, record count and first/last time -- so
///       a reader can fan chunk ranges out to N decode threads without
///       scanning the file first (profiler/ParallelReplay.h). Readers
///       rebuild a missing or untrusted index with one sequential pass
///       (rebuildChunkIndex). v5 adds the sampling params to the header,
///       v6 lets a chunk payload be LZ-compressed.
///   v7  v6 with the object id of every Alloc, Use, Collect and
///       Survivor record zigzag-delta coded against the previous
///       id-carrying record of the same chunk (the chain restarts at 0
///       in each chunk, like the time chain), so the repetitive id
///       stream turns into repeated bytes LZ can find.
///   v8  v7 framing, header and id coding, but the object's finished
///       trailer rides on its Collect/Survivor record (class, bytes,
///       array kind, alloc time and site, first and last use with the
///       deep-GC boundary in force at each, last-use site, use count,
///       used-outside-init), and Alloc and Use leave the wire. Every
///       record is self-contained.
///
/// v8 is the only format written, and every reader below takes v8 only.
/// v2-v7 are read-only formats (tests/data pins them), read in exactly
/// one place: profiler/LegacyStream.h verifies their frames, decodes
/// their records and rebuilds each object's trailer from its Alloc and
/// Use records, handing the consumer the same finished Collect/Survivor
/// records a v8 stream carries (a v2/v3 record may straddle chunks;
/// v4-v7 chunks are self-contained). replayFile, replayBytes and the
/// salvage scan send them there (legacyFormat); index rebuild, sharded
/// replay and jdragd refuse them.
///
/// FrameDecoder verifies and strips the frames of a v8 stream and
/// StreamDecoder decodes each chunk body on its own. The framing is what
/// makes a damaged recording *salvageable*: a decoder can verify each
/// chunk independently, detect exactly where corruption or truncation
/// begins, and recover every complete record before it (see
/// profiler/StreamSalvage.h).
///
/// The producer side degrades gracefully instead of failing silently:
/// when a sink write fails, EventBuffer keeps accepting events, accounts
/// every dropped chunk and byte in a StreamHealth struct, and warns once
/// on stderr -- a long run that hits ENOSPC ends with a salvageable
/// prefix plus an exact accounting of the loss, not an empty file.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_PROFILER_EVENTSTREAM_H
#define JDRAG_PROFILER_EVENTSTREAM_H

#include "profiler/SiteTable.h"
#include "support/Units.h"
#include "vm/Value.h"

#include <algorithm>
#include <cerrno>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace jdrag::profiler {

/// The event set of the paper's instrumented JVM (section 2.1.1), plus
/// the DefineSite metadata record that makes streams self-contained.
/// Alloc and Use exist only in the legacy formats (v2-v7); from v8 their
/// content rides on the object's Collect/Survivor record.
enum class EventKind : std::uint8_t {
  DefineSite, ///< first sighting of an interned nested site
  Alloc,      ///< object allocated (before its constructor runs; v2-v7)
  Use,        ///< one of the paper's object-use kinds (v2-v7)
  GCEnd,      ///< a GC cycle finished (reachable-heap sample)
  DeepGCEnd,  ///< GC + finalization + GC finished
  Collect,    ///< object found unreachable, being reclaimed, with its
              ///< finished trailer
  Survivor,   ///< object survived the final deep GC, with its trailer
  Terminate,  ///< program (including final deep GC) done
};
inline constexpr std::size_t NumEventKinds = 8;

const char *eventKindName(EventKind K);

/// Record-layer encoding of a stream (the `.jdev` header version). The
/// chunk framing is identical in all of them; only the record bytes and
/// the header differ. Only V8 is written; the rest are read-only.
enum class WireFormat : std::uint8_t {
  V2 = 2, ///< fixed 40-byte EventRecords (read-only)
  V3 = 3, ///< per-kind varint records with byte-clock time deltas
          ///< (read-only)
  V4 = 4, ///< v3 records, but chunk-self-contained + chunk index footer
  V5 = 5, ///< v4 chunks/records/footer + sampling params in the header
  V6 = 6, ///< v5 header + per-chunk transparent LZ compression: a chunk
          ///< frame may carry an LZ-compressed payload, flagged in bit
          ///< 31 of ChunkHeader::PayloadBytes, with the CRC still
          ///< computed over the *uncompressed* payload bytes
  V7 = 7, ///< v6 framing and header, object ids delta coded per chunk
          ///< (read-only)
  V8 = 8, ///< v7 coding; Collect/Survivor carry the finished trailer, and
          ///< there are no Alloc or Use records
};

/// The format every new stream is written in, exact or sampled,
/// compressed or not.
inline constexpr WireFormat DefaultWireFormat = WireFormat::V8;

/// True for the read-only formats v2-v7. profiler/LegacyStream.h reads
/// them; every other reader takes v8 only and hands them there, or
/// refuses them.
inline constexpr bool legacyFormat(WireFormat F) {
  return F != WireFormat::V8;
}

/// Byte-interval allocation sampling parameters, carried in the v5+ file
/// header so a recording is self-describing: SampleBytes is the mean of
/// the geometric inter-sample gap on the byte clock (heapprofd-style
/// size-weighted sampling -- an allocation of s bytes is sampled with
/// probability 1 - exp(-s/SampleBytes)); SampleSeed seeds the
/// deterministic PRNG so a recording is reproducible. SampleBytes == 0
/// means exact (every allocation tracked), the pre-v5 behaviour.
struct SamplingParams {
  std::uint64_t SampleBytes = 0;
  std::uint64_t SampleSeed = 0x6a64726167ULL; // "jdrag"
  constexpr bool enabled() const { return SampleBytes != 0; }
};

/// Default byte interval for sampled recordings (`--sample-bytes` with
/// no explicit rate): small enough that the paper's workloads keep a
/// statistically useful sample, large enough that almost every
/// allocation takes the unsampled fast path.
inline constexpr std::uint64_t DefaultSampleBytes = 64 * 1024;

/// The format a recording is written in for a requested format and
/// sampling: always v8, whose header carries the sampling params. Kept
/// for pipebench/driver.cpp, which still calls it.
inline constexpr WireFormat effectiveFormat(WireFormat,
                                            const SamplingParams &) {
  return DefaultWireFormat;
}

/// The same with chunk compression in the picture: still v8. A v8
/// reader honours the compressed flag chunk by chunk, so compression on
/// or off does not change the header.
inline constexpr WireFormat effectiveFormat(WireFormat F,
                                            const SamplingParams &S, bool) {
  return effectiveFormat(F, S);
}

/// Size of the `.jdev` file header for format \p F: 16 bytes (magic,
/// version, reserved) through v4; v5 and later append u64 SampleBytes +
/// u64 SampleSeed for 32.
inline constexpr std::size_t streamHeaderBytes(WireFormat F) {
  return F >= WireFormat::V5 ? 32 : 16;
}

/// What a `.jdev` file header says. Compressed is not a header field:
/// replayFile sets it after the decode, true when at least one data
/// chunk carried the compressed flag (the one rule every reader uses
/// for ProfileLog::Compressed and SalvageReport::Compressed).
struct StreamHeaderInfo {
  WireFormat Format = DefaultWireFormat;
  SamplingParams Sampling;
  bool Compressed = false;
};

/// The one `.jdev` header parser: magic, version range (v2 to v8) and
/// the v5+ sampling extension, read from the first bytes of a file.
/// On success \p Info holds the format and sampling params (exact
/// defaults before v5) and the frames start at
/// streamHeaderBytes(Info.Format). On failure \p Err (if non-null) says
/// why: "not a .jdev event stream (too short|bad magic)", "unsupported
/// .jdev version N" or "truncated vN stream header".
bool parseStreamHeader(std::span<const std::byte> Bytes,
                       StreamHeaderInfo &Info, std::string *Err = nullptr);

/// Collect/Survivor EventRecord::Flags bits.
inline constexpr std::uint8_t RecordIsArray = 0x1;         ///< an array
inline constexpr std::uint8_t RecordUsedOutsideInit = 0x2; ///< used past
                                                           ///< its init

/// One decoded event: the *in-memory* record every consumer sees,
/// whatever the wire format. Field meaning depends on Kind:
///
///   Kind        Time  Id      Arg0            Arg1           Site  Sub    Flags
///   DefineSite  -     -       -               -              id    -      -
///   Alloc       clock object  accounted bytes class index    alloc akind  bit0=isArray
///   Use         clock object  -               -              use   kind   bit0=duringInit
///   GCEnd       clock -       reachable bytes reachable objs -     -      -
///   DeepGCEnd   clock -       -               -              -     -      -
///   Collect     clock object  accounted bytes class index    alloc akind  RecordIsArray,
///   Survivor    clock object  accounted bytes class index    alloc akind  RecordUsedOutsideInit
///   Terminate   clock -       -               -              -     -      -
///
/// A Collect or Survivor also carries the object's trailer in the
/// fields below, the rest of the table: its alloc time; the time of its
/// first use outside initialization and of its last use, each with the
/// deep-GC boundary in force at that use; its last-use site and its use
/// count. A use the record does not have (no use at all, or none outside
/// initialization) reads as AllocTime in both its fields, and an
/// unused object's LastUseSite is InvalidSite. Alloc and Use occur only
/// inside profiler/LegacyStream.cpp, which turns them into these
/// records; no consumer sees them.
struct EventRecord {
  ByteTime Time = 0;
  vm::ObjectId Id = 0;
  std::uint64_t Arg0 = 0;
  std::uint64_t Arg1 = 0;
  SiteId Site = InvalidSite;
  std::uint8_t Kind = 0;
  std::uint8_t Sub = 0;
  std::uint8_t Flags = 0;
  std::uint8_t Reserved = 0; ///< padding, kept zero so records compare
                             ///< bytewise
  // Collect/Survivor: the trailer.
  SiteId LastUseSite = InvalidSite;
  std::uint32_t UseCount = 0;
  ByteTime AllocTime = 0;
  ByteTime FirstUseTime = 0;
  ByteTime FirstUseBoundary = 0;
  ByteTime LastUseTime = 0;
  ByteTime LastUseBoundary = 0;

  EventKind kind() const { return static_cast<EventKind>(Kind); }
};
static_assert(std::is_trivially_copyable_v<EventRecord>);
static_assert(std::has_unique_object_representations_v<EventRecord>,
              "no padding: records compare bytewise");
/// Upper bound on DefineSite frame counts; a decoder rejects anything
/// larger as corruption (matches ProfileLog's chain limit).
inline constexpr std::uint64_t MaxWireFrames = 1024;

/// `.jdev` file magic ("jdevstr1"): 8 bytes, followed by a u32 format
/// version (the stream's WireFormat) and a u32 reserved field.
inline constexpr std::uint64_t StreamFileMagic = 0x6a64657673747231ULL;

//===----------------------------------------------------------------------===//
// Chunk framing
//===----------------------------------------------------------------------===//

/// Frame header preceding every chunk payload in the stream. The magic
/// lets a salvage scan resynchronize at the next chunk boundary after
/// damage; Seq makes dropped or reordered chunks detectable; Crc
/// (CRC-32C of the payload) makes bit flips detectable.
struct ChunkHeader {
  std::uint32_t Magic = 0;
  std::uint32_t Seq = 0;
  std::uint32_t PayloadBytes = 0;
  std::uint32_t Crc = 0;
};
static_assert(sizeof(ChunkHeader) == 16, "wire format is fixed-width");
static_assert(std::is_trivially_copyable_v<ChunkHeader>);

/// "jdCk", little-endian.
inline constexpr std::uint32_t ChunkMagic = 0x6b43646a;

/// Sanity bound on chunk payloads; a decoder rejects larger length
/// fields as corruption instead of attempting a giant buffer.
inline constexpr std::uint32_t MaxChunkPayload = 64u << 20;

/// v6: bit 31 of ChunkHeader::PayloadBytes flags an LZ-compressed
/// payload; the low 31 bits are then the *on-wire* (compressed) byte
/// count and Crc stays the CRC-32C of the uncompressed payload, so
/// integrity and salvage semantics are unchanged. Pre-v6 readers
/// reject a flagged frame outright: the raw field exceeds
/// MaxChunkPayload (64 MiB < 2^31), which is exactly the clean refusal
/// the version bump is for.
inline constexpr std::uint32_t ChunkCompressedBit = 0x80000000u;

/// On-wire payload bytes of a frame whose PayloadBytes field is
/// \p Field (masks off the compressed flag).
inline constexpr std::uint32_t chunkWireBytes(std::uint32_t Field) {
  return Field & ~ChunkCompressedBit;
}

/// True when \p Field flags a compressed payload.
inline constexpr bool chunkCompressed(std::uint32_t Field) {
  return (Field & ChunkCompressedBit) != 0;
}

//===----------------------------------------------------------------------===//
// Chunk-frame verifier
//===----------------------------------------------------------------------===//
//
// The one judge of a chunk frame, in two steps. Every reader of framed
// bytes runs them and keeps only its own policy: which verdict stops it,
// what it does with the sequence number, and its error text.
//
//   1. readFrame (structure): data or footer by magic; the length field
//      as the format reads it (from v6 on, bit 31 of a *data* frame's
//      field flags a compressed payload); the MaxChunkPayload bound; the
//      on-wire extent, a footer's 8 tail bytes included; truncation.
//   2. verifyPayload: inflates a flagged payload and checks the CRC-32C,
//      which covers the uncompressed bytes. The footer rule: a footer's
//      payload must be a u64 record total plus one 48-byte entry per
//      H.Seq, and its tail must repeat the extent and end in
//      FooterTailMagic. Every reader that meets a footer frame judges
//      it here, the index rebuild included.

/// The verdict on one chunk frame. BadSequence and BadRecords are the
/// salvage scan's own; the verifier gives the rest.
enum class ChunkStatus : std::uint8_t {
  Ok,               ///< header valid, CRC matches
  TruncatedHeader,  ///< the bytes end inside the 16-byte chunk header
  TruncatedPayload, ///< the bytes end inside the payload
  BadMagic,         ///< header magic is wrong (overwritten / garbage)
  BadSequence,      ///< sequence number out of order (dropped chunks)
  OversizedPayload, ///< data length 0, or any length past MaxChunkPayload
  BadCrc,           ///< payload bytes do not match the stored CRC-32C
                    ///< (or a footer's tail is damaged)
  BadRecords,       ///< CRC valid but the payload decodes to garbage
  BadCompression,   ///< compressed payload does not decompress
};

const char *chunkStatusName(ChunkStatus S);

/// What readFrame found at the start of a byte range.
struct ChunkFrame {
  ChunkHeader H;       ///< as read (zero after TruncatedHeader)
  bool Footer = false; ///< FooterMagic: the chunk index footer
  /// Ok, or the first of TruncatedHeader, BadMagic, OversizedPayload,
  /// TruncatedPayload that holds. The sequence number is not judged.
  ChunkStatus Status = ChunkStatus::TruncatedHeader;
  bool Compressed = false;        ///< a v6+ data frame with the flag set
  std::uint32_t PayloadBytes = 0; ///< on-wire payload bytes (a BadMagic
                                  ///< frame's read as a data frame's)
  std::size_t Extent = 0;         ///< on-wire frame bytes, set once the
                                  ///< magic and the length pass
  const std::byte *Data = nullptr; ///< where the frame starts

  const std::byte *payload() const { return Data + sizeof(ChunkHeader); }
};

/// Step 1: the frame at the start of \p Bytes, in a stream of format
/// \p F. No CRC is checked. The format only matters to LegacyStream:
/// before v6 a flagged length is read raw, so it fails the bound.
ChunkFrame readFrame(std::span<const std::byte> Bytes,
                     WireFormat F = DefaultWireFormat);

struct FramePayload {
  /// Ok, BadCompression, or BadCrc (which also covers a footer that
  /// breaks the footer rule)
  ChunkStatus Status = ChunkStatus::Ok;
  /// The uncompressed payload: the frame's bytes, or the scratch buffer
  /// it was inflated into. Empty after BadCompression.
  std::span<const std::byte> Body;
  std::uint32_t Crc = 0; ///< CRC-32C computed over Body
};

/// Step 2 for a frame readFrame found whole (Status Ok); a flagged
/// payload is inflated into \p Scratch.
FramePayload verifyPayload(const ChunkFrame &Fr,
                           std::vector<std::uint8_t> &Scratch);

/// Step 2's inflation without the CRC, for readers that check structure
/// only (rebuildChunkIndex). \p Payload holds the on-wire bytes of the
/// frame headed by \p H. Sets \p Out to the uncompressed payload (the
/// input itself, or \p Scratch) and returns true, or returns false when
/// a flagged payload is malformed.
bool chunkPayloadBytes(const ChunkHeader &H, const std::byte *Payload,
                       std::vector<std::uint8_t> &Scratch,
                       std::span<const std::byte> &Out);

//===----------------------------------------------------------------------===//
// Chunk index footer (v4)
//===----------------------------------------------------------------------===//

/// "jdIx", little-endian: the ChunkHeader magic of the terminal chunk
/// index footer frame a v4 stream ends with. Pre-v4 readers that walk
/// frames strictly reject it as an unknown chunk, which is the intended
/// compatibility break: v4 bumped the header version precisely so old
/// readers refuse cleanly instead of mis-decoding.
inline constexpr std::uint32_t FooterMagic = 0x7849646aU;

/// "jdFt", little-endian: the trailing 4 bytes of the footer block. A
/// reader finds the footer by reading the last 8 bytes of the stream
/// (u32 block size, u32 this magic) -- no forward scan needed.
inline constexpr std::uint32_t FooterTailMagic = 0x7446646aU;

/// One chunk's entry in the index: what the footer serializes (48 bytes
/// each on the wire, after a u64 record total).
struct ChunkIndexEntry {
  std::uint64_t Offset = 0;      ///< stream offset of the ChunkHeader
                                 ///< (first chunk = 0; file readers add
                                 ///< the 16-byte .jdev header)
  std::uint32_t Seq = 0;         ///< chunk sequence number
  std::uint32_t PayloadBytes = 0;
  std::uint32_t Crc = 0;         ///< CRC-32C of the payload
  std::uint32_t RecordCount = 0; ///< records in this chunk
  ByteTime FirstTime = 0;        ///< first timed record here (0 if none)
  ByteTime LastTime = 0;         ///< last timed record here
  std::uint64_t FirstRecord = 0; ///< global index of the chunk's first
                                 ///< record
};

/// A stream's chunk map: either parsed from a v4 footer or rebuilt by
/// one sequential pass. Chunk ranges from it can be decoded by
/// independent workers (profiler/ParallelReplay.h).
struct ChunkIndex {
  std::vector<ChunkIndexEntry> Entries;
  std::uint64_t TotalRecords = 0;
  bool FromFooter = false; ///< parsed from a footer (i.e. unverified
                           ///< producer claims) vs rebuilt from bytes

  /// True when at least one indexed chunk carries the compressed flag
  /// (entries hold the on-wire length field; meaningful for v6+).
  bool compressed() const {
    return std::any_of(Entries.begin(), Entries.end(),
                       [](const ChunkIndexEntry &E) {
                         return chunkCompressed(E.PayloadBytes);
                       });
  }
};

/// Serializes a footer block: ChunkHeader{FooterMagic, entry count,
/// payload length, payload CRC} + payload (u64 total records, then one
/// 48-byte entry per chunk) + u32 block size + u32 FooterTailMagic.
std::vector<std::byte> encodeChunkIndexFooter(
    std::span<const ChunkIndexEntry> Entries, std::uint64_t TotalRecords);

/// Byte size of the footer block at the tail of \p Stream (raw framed
/// bytes, no file header), or 0 if there is none: the tail names a size,
/// and the bytes that far back read as a whole footer frame of exactly
/// that extent. Checks shape only -- readChunkIndexFooter verifies the
/// contents.
std::size_t footerBlockSize(std::span<const std::byte> Stream);

/// Parses and CRC-verifies the footer at the tail of \p Stream into
/// \p Out (FromFooter = true). Returns false if absent or invalid --
/// callers fall back to rebuildChunkIndex.
bool readChunkIndexFooter(std::span<const std::byte> Stream, ChunkIndex &Out);

/// Like readChunkIndexFooter, but \p Tail is only a *suffix* of the
/// framed stream (it must end where the stream ends), so the one check
/// that needs the full extent -- entries tiling the data region exactly
/// up to the footer -- is skipped. Everything else (tail magic, header,
/// payload CRC, per-entry offset chain) is verified. This lets a reader
/// peek footer metadata (e.g. the stream's end time, max of the entries'
/// LastTime) from the last few KB of a file without loading it; the
/// claims are still a producer's, so consumers must cross-check them
/// against what an actual decode observes.
bool peekChunkIndexFooterTail(std::span<const std::byte> Tail,
                              ChunkIndex &Out);

/// Rebuilds the chunk index with one strict sequential pass over
/// \p Stream (raw framed bytes): walks every frame and decodes each
/// chunk body on its own, filling per-chunk record counts and times.
/// Serves v8 streams whose footer is missing or untrusted, and
/// footer-vs-reality audits. A footer frame is legal only as the
/// terminal block, and must pass the footer rule (verifyPayload).
/// Returns false with \p Err on structural damage (truncation, bad
/// magic/sequence, malformed or cut-off records, a damaged footer).
/// Data-chunk CRCs are NOT checked here; consumers verify them when they
/// decode. \p Stream must be v8: a legacy stream has no index here, and
/// LegacyStream reads it sequentially.
bool rebuildChunkIndex(std::span<const std::byte> Stream, ChunkIndex &Out,
                       std::string *Err = nullptr);

//===----------------------------------------------------------------------===//
// Chunk compression (v6+)
//===----------------------------------------------------------------------===//

/// Rewrites a framed chunk stream into its compressed form, one
/// frame at a time -- the shared engine behind FileEventSink's
/// `Compress` option and SocketEventSink's pre-send compression, so the
/// transform runs off the VM's critical path (on the file sink /
/// background writer / sender, never in EventBuffer::flush).
///
/// Data chunks get their payload LZ-compressed (stored raw, flag
/// clear, when incompressible -- lzCompress's >= rule guarantees a
/// compressed frame is strictly smaller); Seq, Magic and Crc are
/// preserved, Crc still covering the uncompressed payload. The
/// terminal chunk index footer passes through uncompressed but has its
/// entries rewritten -- Offset and PayloadBytes replaced with the
/// actual on-wire values this compressor produced, payload CRC
/// recomputed -- so footer offsets index the *compressed* chunks and
/// sharded replay seeks correctly. Entries whose Seq this compressor
/// never saw (e.g. chunks shed before a spool opened) keep their
/// producer values; readers detect the mismatch and rebuild, exactly
/// as they do for loss today.
class ChunkCompressor {
public:
  /// Transforms one framed chunk (16-byte ChunkHeader + payload; footer
  /// frames carry 8 tail bytes). Returns the frame to put on the wire:
  /// the input span itself when it passes through unchanged, or an
  /// internally-owned scratch buffer (valid until the next call)
  /// holding the compressed frame / rewritten footer. Returns an empty
  /// span on a structurally invalid input frame.
  std::span<const std::byte> transform(const std::byte *Data,
                                       std::size_t Size);

  /// Uncompressed payload bytes that entered / on-wire payload bytes
  /// that left (the compression ratio numerator/denominator).
  std::uint64_t rawPayloadBytes() const { return RawBytes; }
  std::uint64_t wirePayloadBytes() const { return WireBytes; }

private:
  struct WireRecord {
    std::uint32_t Seq = 0;
    std::uint64_t Offset = 0;     ///< on-wire stream offset of the frame
    std::uint32_t Field = 0;      ///< on-wire PayloadBytes field
  };
  std::vector<WireRecord> Wire;
  std::vector<std::uint8_t> Lz;     ///< lzCompress output scratch
  std::vector<std::byte> Scratch;   ///< rewritten frame scratch
  std::uint64_t Offset = 0;         ///< on-wire offset of the next frame
  std::uint64_t RawBytes = 0;
  std::uint64_t WireBytes = 0;
};

/// Retry/backoff schedule shared by every sink that retries transient
/// failures (FileEventSink write errors, SocketEventSink connects and
/// sends). Delay for attempt N is BaseDelayMicros << min(N, MaxDelayShift),
/// optionally spread by deterministic jitter so a fleet of VMs does not
/// reconnect in lockstep.
struct BackoffPolicy {
  /// Retry budget for one operation (a chunk write, a reconnect round).
  std::uint32_t MaxRetries = 8;
  /// First retry delay; doubles per attempt.
  std::uint32_t BaseDelayMicros = 100;
  /// Cap: the delay stops doubling after this many attempts.
  std::uint32_t MaxDelayShift = 7;
  /// Subtract a deterministic pseudo-random slice (up to half the delay,
  /// keyed on \p Salt) so concurrent clients desynchronise.
  bool Jitter = false;
};

/// Delay before retry attempt \p Attempt (0-based) under \p P, with the
/// jitter keyed on \p Salt (e.g. pid ^ attempt).
std::uint32_t backoffDelayMicros(const BackoffPolicy &P, std::uint32_t Attempt,
                                 std::uint32_t Salt = 0);

/// Producer-side accounting of stream integrity. Every byte handed to a
/// failing sink is counted, never silently discarded: after a run,
/// `intact()` says whether the recording is complete and the counters
/// say exactly how much was lost and why (last errno, retries spent).
/// Spooled chunks are NOT drops: they reached a durable local file
/// instead of the remote collector and can be forwarded later
/// (`jdrag send`), so intact() stays true for a fully-spooled stream.
struct StreamHealth {
  std::uint64_t ChunksWritten = 0; ///< chunks accepted by the sink
  std::uint64_t ChunksDropped = 0; ///< chunks the sink refused or shed
  std::uint64_t BytesWritten = 0;  ///< frame bytes accepted (header+payload)
  std::uint64_t BytesDropped = 0;  ///< frame bytes refused or shed
  std::uint64_t SpooledChunks = 0; ///< chunks diverted to a local spool
  std::uint64_t SpooledBytes = 0;  ///< frame bytes diverted to the spool
  std::uint32_t Failovers = 0;     ///< remote-to-spool failover events
  std::uint32_t Retries = 0;       ///< transient-error retries in the sink
  int LastErrno = 0;               ///< errno of the last sink failure

  bool intact() const { return ChunksDropped == 0; }
};

/// Where flushed chunks go. Implementations must tolerate any chunk
/// sizes; each writeChunk call carries exactly one framed chunk (header
/// plus payload, or the footer block).
class EventSink {
public:
  virtual ~EventSink();
  /// Receives the next \p Size bytes of the stream. Returns false on
  /// unrecoverable error (the producer stops handing chunks to this
  /// sink and accounts further chunks as dropped).
  virtual bool writeChunk(const std::byte *Data, std::size_t Size) = 0;
  /// Stream complete (all chunks flushed). Default: no-op.
  virtual bool finish() { return true; }
  /// errno of the most recent failure, 0 if none (for StreamHealth).
  virtual int lastErrno() const { return 0; }
  /// Transient-error retries performed so far (for StreamHealth).
  virtual std::uint32_t retries() const { return 0; }
  /// Chunks/bytes this sink *accepted* (writeChunk returned true) but
  /// had to discard later -- an async queue shedding load, a background
  /// write failing. EventBuffer::health() folds these into the drop
  /// accounting so StreamHealth::intact() stays an end-to-end truth.
  virtual std::uint64_t droppedChunks() const { return 0; }
  virtual std::uint64_t droppedBytes() const { return 0; }
  /// Chunks/bytes this sink accepted but diverted to a durable local
  /// spool instead of their primary destination (SocketEventSink when
  /// the daemon is unreachable), and how many failover transitions
  /// happened. Spooled data is recoverable, so it is accounted apart
  /// from drops.
  virtual std::uint64_t spooledChunks() const { return 0; }
  virtual std::uint64_t spooledBytes() const { return 0; }
  virtual std::uint32_t failovers() const { return 0; }
};

/// Keeps the raw stream in memory.
class MemorySink : public EventSink {
public:
  bool writeChunk(const std::byte *Data, std::size_t Size) override {
    // Geometric growth up front: one reserve doubles the buffer instead
    // of letting insert() reallocate mid-copy on the hot path.
    if (Buf.capacity() - Buf.size() < Size)
      Buf.reserve(std::max(Buf.capacity() * 2, Buf.size() + Size));
    Buf.insert(Buf.end(), Data, Data + Size);
    return true;
  }
  std::span<const std::byte> bytes() const { return Buf; }

private:
  std::vector<std::byte> Buf;
};

/// Discards the stream (the "null sink" overhead baseline).
class NullSink : public EventSink {
public:
  bool writeChunk(const std::byte *, std::size_t Size) override {
    Bytes += Size;
    return true;
  }
  std::uint64_t bytesDiscarded() const { return Bytes; }

private:
  std::uint64_t Bytes = 0;
};

/// Duplicates the stream into two sinks (e.g. live consumer + file).
class TeeSink : public EventSink {
public:
  TeeSink(EventSink &A, EventSink &B) : A(A), B(B) {}
  bool writeChunk(const std::byte *Data, std::size_t Size) override {
    bool OkA = A.writeChunk(Data, Size);
    bool OkB = B.writeChunk(Data, Size);
    return OkA && OkB;
  }
  bool finish() override {
    bool OkA = A.finish();
    bool OkB = B.finish();
    return OkA && OkB;
  }
  int lastErrno() const override {
    return A.lastErrno() ? A.lastErrno() : B.lastErrno();
  }
  std::uint32_t retries() const override {
    return A.retries() + B.retries();
  }
  std::uint64_t droppedChunks() const override {
    return A.droppedChunks() + B.droppedChunks();
  }
  std::uint64_t droppedBytes() const override {
    return A.droppedBytes() + B.droppedBytes();
  }
  std::uint64_t spooledChunks() const override {
    return A.spooledChunks() + B.spooledChunks();
  }
  std::uint64_t spooledBytes() const override {
    return A.spooledBytes() + B.spooledBytes();
  }
  std::uint32_t failovers() const override {
    return A.failovers() + B.failovers();
  }

private:
  EventSink &A;
  EventSink &B;
};

/// Wraps another sink and fails on a deterministic schedule -- the test
/// harness for the pipeline's crash/ENOSPC behaviour. Passes bytes
/// through until \p FailAfterBytes total bytes, then (optionally) short-
/// writes the first \p ShortWriteBytes bytes of the failing chunk before
/// refusing it and everything after -- simulating a crash or full disk
/// that truncates the recording mid-frame.
class FaultInjectionSink : public EventSink {
public:
  struct Plan {
    /// Total bytes to pass through before the permanent failure.
    std::uint64_t FailAfterBytes = ~0ull;
    /// Bytes of the failing chunk still written (a short write that
    /// truncates the stream mid-frame). 0 = the failing chunk is lost
    /// whole, leaving a clean chunk-boundary prefix.
    std::size_t ShortWriteBytes = 0;
    /// errno reported for the injected failure.
    int Errno = ENOSPC;
  };

  FaultInjectionSink(EventSink &Inner, Plan P) : Inner(Inner), P(P) {}

  bool writeChunk(const std::byte *Data, std::size_t Size) override {
    if (Tripped)
      return false;
    if (Written + Size <= P.FailAfterBytes) {
      Written += Size;
      return Inner.writeChunk(Data, Size);
    }
    Tripped = true;
    if (P.ShortWriteBytes && P.ShortWriteBytes < Size)
      Inner.writeChunk(Data, P.ShortWriteBytes);
    return false;
  }
  bool finish() override { return Inner.finish() && !Tripped; }
  int lastErrno() const override { return Tripped ? P.Errno : 0; }
  std::uint32_t retries() const override { return Inner.retries(); }
  std::uint64_t droppedChunks() const override {
    return Inner.droppedChunks();
  }
  std::uint64_t droppedBytes() const override { return Inner.droppedBytes(); }

  bool tripped() const { return Tripped; }

private:
  EventSink &Inner;
  Plan P;
  std::uint64_t Written = 0;
  bool Tripped = false;
};

/// Writes a v8 `.jdev` recording: the 32-byte file header (magic,
/// version, sampling params) followed by the framed chunk stream.
/// Transient write errors (EINTR, EAGAIN, short writes) are retried with
/// bounded backoff; genuine failures (ENOSPC, EIO) mark the sink failed
/// and are surfaced through lastErrno()/retries(). An optional fsync
/// cadence bounds how much a crash of the *recording process* can lose.
class FileEventSink : public EventSink {
public:
  struct Options {
    /// Retry schedule for transient errors on one chunk (the same
    /// policy type SocketEventSink uses for reconnects).
    BackoffPolicy Backoff;
    /// fsync the file every N accepted chunks (0 = never). With N=1
    /// every flushed chunk is durable before the VM continues.
    std::uint32_t FsyncEveryChunks = 0;
    /// Must be v8, the only format written: open() refuses any other.
    /// The field stays for pipebench/driver.cpp, which still sets it.
    WireFormat Format = DefaultWireFormat;
    /// Sampling parameters stamped into the header.
    SamplingParams Sampling;
    /// Compress chunk payloads before they hit the disk. Incoming frames
    /// that are already compressed (the daemon recording what a client
    /// sent, `jdrag send` forwarding a spool) are written verbatim,
    /// never re-compressed.
    bool Compress = false;
  };

  FileEventSink() = default;
  ~FileEventSink() override;
  FileEventSink(const FileEventSink &) = delete;
  FileEventSink &operator=(const FileEventSink &) = delete;

  /// Opens \p Path and writes the header. Returns false on I/O error,
  /// for a Format other than v8 (lastErrno() EINVAL, nothing opened), or
  /// if this sink is already open (the first stream stays usable).
  bool open(const std::string &Path, Options Opt);
  bool open(const std::string &Path) { return open(Path, Options()); }
  bool writeChunk(const std::byte *Data, std::size_t Size) override;
  /// Flushes and closes. Returns false if any write failed.
  bool finish() override;

  std::uint64_t bytesWritten() const { return Bytes; }
  int lastErrno() const override { return LastErr; }
  std::uint32_t retries() const override { return Retries; }
  /// Compression accounting (zero unless Options::Compress): payload
  /// bytes before / after the chunk compressor.
  std::uint64_t rawPayloadBytes() const {
    return Comp ? Comp->rawPayloadBytes() : 0;
  }
  std::uint64_t wirePayloadBytes() const {
    return Comp ? Comp->wirePayloadBytes() : 0;
  }

protected:
  /// Write seam: returns bytes actually written, setting errno on a
  /// failure or short write. Tests override this to inject transient
  /// faults and exercise the retry loop.
  virtual std::size_t rawWrite(const std::byte *Data, std::size_t Size);

private:
  bool durableFlush();
  bool writeFrame(const std::byte *Data, std::size_t Size);

  std::FILE *F = nullptr;
  std::unique_ptr<ChunkCompressor> Comp; ///< non-null when compressing
  Options Opt;
  std::uint64_t Bytes = 0;
  std::uint64_t Chunks = 0;
  std::uint32_t Retries = 0;
  int LastErr = 0;
  bool Ok = true;
};

/// The values a chunk's timed records are delta coded against, each the
/// previous such value in the chunk and zero at its start: the record
/// time, the object id and, in v8 trailers, the alloc time and the
/// deep-GC boundary. The encoder and the record loop share it.
struct DeltaChains {
  ByteTime Time = 0;
  vm::ObjectId Id = 0;
  ByteTime Alloc = 0;
  ByteTime Boundary = 0;
};

/// Chunked accumulator between the emitting VM and a sink. Events are
/// encoded as compact varint records into the current chunk; a full
/// chunk is framed (ChunkHeader + payload) and handed to the sink, and
/// writing continues in the next chunk. Every chunk is self-contained:
/// it is flushed at a record boundary (a record that will not fit starts
/// the next chunk; one bigger than the chunk budget gets an oversized
/// chunk of its own), the time and object-id delta chains restart per
/// chunk, and finishStream() appends the chunk index footer. The
/// records are v8; nothing writes an older format, and an Alloc or Use
/// record has no v8 encoding.
///
/// A sink failure does not stop event production: the buffer keeps
/// accepting events, accounts every refused chunk in health(), and
/// warns once on stderr. The recording then holds a valid prefix that
/// StreamSalvage can recover.
class EventBuffer {
public:
  static constexpr std::size_t DefaultChunkBytes = 64 * 1024;

  /// \p Checksum = false skips the CRC computation and stamps 0 into
  /// the frame headers. Decoders reject such frames -- the switch
  /// exists ONLY to measure the integrity overhead (bench/) and must
  /// never be used for real recordings. \p Format must be v8, the only
  /// format written (effectiveFormat always yields it).
  explicit EventBuffer(EventSink &Sink,
                       std::size_t ChunkBytes = DefaultChunkBytes,
                       bool Checksum = true,
                       WireFormat Format = DefaultWireFormat);

  void writeEvent(const EventRecord &E);
  /// Emits a DefineSite record for \p Id with \p Frames.
  void writeSite(SiteId Id, std::span<const SiteFrame> Frames);
  /// Frames the current partial chunk and hands it to the sink.
  /// Returns false if the chunk was dropped (accounted in health()).
  bool flush();
  /// End-of-stream: flushes and appends the chunk index footer frame
  /// (skipped when the stream is already known damaged -- a footer must
  /// only describe chunks that were actually written). Idempotent.
  bool finishStream();
  /// True while no sink write has failed.
  bool ok() const { return !SinkFailed; }
  /// Integrity accounting, including the sink's errno/retry counters
  /// and any chunks the sink accepted but later shed (droppedChunks()).
  StreamHealth health() const;
  std::uint64_t eventsWritten() const { return Events; }
  /// The chunk index accumulated so far (what finishStream writes).
  const std::vector<ChunkIndexEntry> &chunkIndex() const { return Index; }

private:
  /// Encodes the timed record \p E into \p Buf against \p Ch, which it
  /// advances. Returns the record's length.
  static std::size_t encodeTimed(const EventRecord &E, std::uint8_t *Buf,
                                 DeltaChains &Ch);
  void appendRecord(const void *Data, std::size_t Size, bool Timed,
                    ByteTime Time);
  void beginChunk();

  EventSink &Sink;
  std::vector<std::byte> Chunk; ///< ChunkHeader placeholder + payload
  std::size_t ChunkBytes;
  std::uint64_t Events = 0;
  std::uint32_t NextSeq = 0;
  DeltaChains Chains;
  StreamHealth Health;
  bool Checksum = true;
  bool SinkFailed = false;
  bool Warned = false;
  // Chunk-index bookkeeping.
  std::vector<ChunkIndexEntry> Index;
  std::vector<std::byte> SiteScratch; ///< whole-record DefineSite staging
  std::uint64_t StreamOffset = 0;     ///< offset of the next chunk
  std::uint64_t ChunkFirstRecord = 0;
  std::uint32_t ChunkRecords = 0;
  ByteTime ChunkFirstTime = 0;
  ByteTime ChunkLastTime = 0;
  bool ChunkHasTime = false;
  bool FooterWritten = false;
};

/// Receiver of decoded events. DefineSite records arrive through
/// onSite() in stream order, so interning the frames in arrival order
/// reproduces the producer's SiteTable ids.
class EventConsumer {
public:
  virtual ~EventConsumer();
  virtual void onSite(SiteId Id, std::span<const SiteFrame> Frames) = 0;
  virtual void onEvent(const EventRecord &E) = 0;
  /// The program this consumer resolves site frames against, or null.
  /// Decoders ask once; when it names one, they reject the first
  /// DefineSite frame it does not have (siteMisfit) before the frame
  /// reaches onSite.
  virtual const ir::Program *siteProgram() const { return nullptr; }
};

class StreamDecoder;

/// A consumer together with the record loop instantiated for its type.
/// The loop (StreamDecoder, profiler/RecordLoop.h) is a template on the
/// consumer: a `final` consumer class gets an instantiation of its own,
/// in which its onEvent is a direct call the compiler can inline into
/// the record decode (DragProfiler turns each Collect into its record
/// there); any other consumer shares the EventConsumer instantiation and
/// its virtual call. Every v8 record reader takes a RecordTarget, built
/// implicitly from the consumer, so handing a DragProfiler to
/// FrameDecoder, DispatchSink, replayBytes or replayFile reaches its
/// own loop. The choice is made once per decoder; each chunk body then
/// costs one indirect call. The loop reads v8 records; the legacy loops
/// (v3-v6 with absolute ids, v7 with delta ids, both with Alloc and Use
/// records) are instantiated once each, for EventConsumer, by
/// profiler/LegacyStream.cpp.
class RecordTarget {
public:
  template <class Consumer>
    requires std::derived_from<Consumer, EventConsumer>
  RecordTarget(Consumer &C); // defined in profiler/RecordLoop.h

  EventConsumer &consumer() const { return *C; }

private:
  friend class StreamDecoder;
  using LoopFn = bool (*)(StreamDecoder &, EventConsumer &,
                          const std::byte *, std::size_t);
  EventConsumer *C;
  LoopFn Loop;
};

/// *Record-layer* decoder of self-contained v8 chunks: each
/// decodeChunk() call decodes one whole chunk body and dispatches its
/// records to the consumer. The time, object-id and deep-GC boundary
/// delta chains start at zero in every body, and a record cut off by
/// the end of a body is an error: records never straddle chunks. Does
/// not know about chunk frames -- FrameDecoder strips those first. Its
/// record loop is the only parser of varint records
/// (profiler/RecordLoop.h); legacyRecordDecoder builds the variants
/// LegacyStream reads v3-v7 bodies with.
class StreamDecoder {
public:
  explicit StreamDecoder(RecordTarget T)
      : StreamDecoder(*T.C, T.Loop) {}

  /// Decodes one chunk body. Returns false (sticky) on a malformed or
  /// cut-off record; error() describes it. The records before it have
  /// already reached the consumer.
  bool decodeChunk(const std::byte *Data, std::size_t Size) {
    return !Failed && Loop(*this, *C, Data, Size);
  }

  std::uint64_t eventsDecoded() const { return Events; }
  /// Body bytes of the records dispatched so far.
  std::uint64_t bytesDecoded() const { return Bytes; }
  /// True when decoding stopped at a record cut off by the end of its
  /// body, rather than at malformed bytes.
  bool recordCut() const { return Cut; }
  const std::string &error() const { return Error; }

private:
  friend class RecordTarget;
  friend StreamDecoder legacyRecordDecoder(EventConsumer &C, WireFormat F);

  StreamDecoder(EventConsumer &C, RecordTarget::LoopFn Loop)
      : C(&C), Loop(Loop), SiteProgram(C.siteProgram()) {}

  /// What stopped a timed record, if anything.
  enum class Verdict : std::uint8_t {
    Ok,
    Cut,       ///< the body ends inside the record
    SpareBits, ///< a spare tag bit is set
    UseKind7,  ///< a Use names the undefined use kind 7 (v3-v7)
    BadVarint, ///< overlong varint, or a u32 field past 2^32
    LegacyKind,       ///< an Alloc or Use record in a v8 body
    AllocAfterEnd,    ///< a v8 trailer's alloc time follows its record
    UseBeforeAlloc,   ///< a v8 trailer's use time precedes its alloc
    UseAfterEnd,      ///< a v8 trailer's use time follows its record
    FirstAfterLast,   ///< a v8 trailer's first use (or its boundary)
                      ///< follows its last
    BoundaryAfterUse, ///< a v8 trailer's deep-GC boundary follows the
                      ///< use it belongs to
    UnusedWithSite,   ///< a v8 trailer with no use but a last-use site
    BadArrayKind,     ///< a v8 trailer's array kind is out of range
  };

  /// The loop for one consumer type and record layout: V8, or the
  /// legacy V7 (delta ids) or V6 (absolute ids, read for v3-v6).
  template <class Consumer, WireFormat F>
  static bool loop(StreamDecoder &D, EventConsumer &C, const std::byte *Data,
                   std::size_t Size) {
    return D.decodeBody<F>(static_cast<Consumer &>(C), Data, Size);
  }

  template <WireFormat F, class Consumer>
  bool decodeBody(Consumer &C, const std::byte *Data, std::size_t Size);

  // Forced inline, like the readers' fast paths (RecordLoop.h): the
  // loop is only fast with its per-record steps inlined into it.
  template <WireFormat F, class Reader, class Consumer>
  [[gnu::always_inline]] inline static Verdict
  timedRecord(Reader &R, std::uint8_t Tag, DeltaChains &Ch, Consumer &C);

  template <class Reader>
  [[gnu::always_inline]] inline static Verdict
  trailer(Reader &R, std::uint8_t Tag, DeltaChains &Ch, EventRecord &E);

  template <class Reader, class Consumer>
  [[gnu::always_inline]] inline static Verdict
  deliver(const Reader &R, const EventRecord &E, DeltaChains &Ch,
          Consumer &C);

  /// Reads the DefineSite record at \p Data[\p At] into FrameScratch
  /// and \p Id, and checks its frames against SiteProgram. Returns its
  /// length, or 0 after recording the error, with \p Records the records
  /// dispatched before it in this body.
  std::size_t readSite(const std::byte *Data, std::size_t Size,
                       std::size_t At, std::uint64_t Records, SiteId &Id);
  /// Records why the timed record of kind \p Kind at \p At stopped the
  /// body, after \p Records records, and returns false.
  bool reject(std::size_t At, std::uint64_t Records, Verdict V,
              EventKind Kind);
  bool fail(std::string Msg);

  EventConsumer *C;
  RecordTarget::LoopFn Loop;
  const ir::Program *SiteProgram; ///< C's siteProgram()
  std::vector<SiteFrame> FrameScratch;
  std::uint64_t Events = 0;
  std::uint64_t Bytes = 0;
  std::string Error;
  bool Failed = false;
  bool Cut = false;
};

/// The sequential readers' policy over the chunk-frame verifier, in
/// FrameDecoder's order and with its error texts: judges \p Fr, met
/// after \p Seq data chunks (and after a footer when \p FooterSeen).
/// Returns false with \p Err ("corrupt event stream: ...") on damage.
/// Otherwise Fr.Status says whether the bytes end inside the frame (not
/// Ok: wait for more, or fail truncated), or it is a verified footer
/// (Fr.Footer, to skip) or data chunk (its body in \p P). \p Footers is
/// false for v2/v3 streams, where a footer frame is bad magic.
/// FrameDecoder and LegacyStream both judge frames here.
bool judgeStreamFrame(const ChunkFrame &Fr, std::uint32_t Seq,
                      bool FooterSeen, bool Footers,
                      std::vector<std::uint8_t> &Scratch, FramePayload &P,
                      std::string &Err);

/// The error text of a chunk body the record layer \p Records rejected
/// as the \p Seq-th chunk.
std::string chunkRecordsError(const StreamDecoder &Records, std::uint32_t Seq);

/// Incremental *chunk-layer* decoder of v8 streams: feed() arbitrary
/// byte slices of a framed stream; it checks each frame through the
/// chunk-frame verifier, wants the sequence numbers in order, and hands
/// each verified chunk body to the record layer. Any integrity
/// violation fails sticky with a precise error naming the chunk -- use
/// StreamSalvage to recover what precedes the damage.
class FrameDecoder {
public:
  /// \p Format must be v8; a legacy one fails the first feed() (those
  /// streams are read by profiler/LegacyStream.h). The parameter stays
  /// for pipebench/driver.cpp, which still passes it.
  explicit FrameDecoder(RecordTarget C,
                        WireFormat Format = DefaultWireFormat);

  bool feed(const std::byte *Data, std::size_t Size);

  /// True when the stream so far ends exactly at a chunk boundary that
  /// is also a record boundary -- i.e. a complete, undamaged stream.
  /// (A stream whose footer frame has not arrived still qualifies: the
  /// footer is an index, not data, and readers rebuild missing ones.)
  bool atRecordBoundary() const { return !Failed && Pending.empty(); }

  std::uint64_t eventsDecoded() const { return Records.eventsDecoded(); }
  /// Chunk-body bytes of the records dispatched so far.
  std::uint64_t bytesDecoded() const { return Records.bytesDecoded(); }
  std::uint64_t chunksDecoded() const { return Chunks; }
  /// Data chunks so far whose frame carried the compressed flag.
  std::uint64_t compressedChunks() const { return CompressedChunks; }
  /// True once the terminal chunk index footer was seen and verified.
  bool footerSeen() const { return FooterSeen; }
  const std::string &error() const {
    return Error.empty() ? Records.error() : Error;
  }

private:
  bool fail(std::string Msg);

  StreamDecoder Records;
  std::vector<std::byte> Pending;
  std::vector<std::uint8_t> Inflate; ///< per-chunk decompress scratch
  std::uint64_t Chunks = 0;
  std::uint64_t CompressedChunks = 0;
  std::uint32_t NextSeq = 0;
  std::string Error;
  bool Failed = false;
  bool FooterSeen = false;
};

/// A sink that decodes inline and feeds a consumer -- attached (live)
/// profiling: the VM flushes chunks, the consumer sees decoded events.
/// The VM always emits v8.
class DispatchSink : public EventSink {
public:
  explicit DispatchSink(RecordTarget C) : Decoder(C) {}
  bool writeChunk(const std::byte *Data, std::size_t Size) override {
    return Decoder.feed(Data, Size);
  }
  bool finish() override { return Decoder.atRecordBoundary(); }
  const FrameDecoder &decoder() const { return Decoder; }

private:
  FrameDecoder Decoder;
};

/// Replays raw framed stream bytes (no file header) into \p C. Returns
/// false and sets \p Err on malformed or truncated input. A legacy
/// \p Format goes through profiler/LegacyStream.h.
bool replayBytes(std::span<const std::byte> Bytes, RecordTarget C,
                 std::string *Err = nullptr,
                 WireFormat Format = DefaultWireFormat);

/// Replays a `.jdev` recording into \p C, validating the file header,
/// every chunk frame (sequence + CRC), and record completeness. v2
/// through v8 recordings are accepted (v2-v7 through
/// profiler/LegacyStream.h; compressed chunk payloads are decompressed
/// transparently). A header-only file (zero events) replays
/// successfully. Damaged files fail with a precise error;
/// `jdrag salvage` recovers their prefix. When \p Info is non-null it
/// receives the header's format and sampling params (exact defaults for
/// pre-v5 files) and whether any data chunk was compressed.
bool replayFile(const std::string &Path, RecordTarget C,
                std::string *Err = nullptr,
                StreamHeaderInfo *Info = nullptr);

/// Reads and validates just the `.jdev` file header at \p Path into
/// \p Info (parseStreamHeader; Info.Compressed stays false). Returns
/// false (with \p Err) on an unreadable file ("cannot open <path>", or
/// "cannot read <path>" for one that is not a regular file, as
/// readWholeFile refuses it), bad magic, or unknown version.
bool readStreamHeader(const std::string &Path, StreamHeaderInfo &Info,
                      std::string *Err = nullptr);

/// Reads the whole file at \p Path into \p Out, for the readers that
/// need random access to a recording (sharded replay, salvage, the
/// footerless end-time peek, `jdrag send`). Returns false when the file
/// cannot be opened or read, or is not a regular file (a directory).
bool readWholeFile(const std::string &Path, std::vector<std::byte> &Out);

} // namespace jdrag::profiler

#include "profiler/RecordLoop.h"

#endif // JDRAG_PROFILER_EVENTSTREAM_H
