//===- profiler/StreamSalvage.h - Log fsck + salvage ------------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recovery tooling for damaged `.jdev` recordings. The chunk framing
/// (profiler/EventStream.h) makes every chunk independently verifiable,
/// so a crashed, truncated, or bit-flipped recording is not a total
/// loss: scanEventFile() walks the file chunk by chunk, takes each
/// frame's ChunkStatus from the chunk-frame verifier (readFrame,
/// verifyPayload), adds its own BadSequence and BadRecords verdicts,
/// and optionally replays the *longest valid event prefix* -- every
/// complete record before the first damage -- into a consumer.
/// salvageEventFile() re-encodes that prefix as a fresh, fully valid
/// `.jdev`, so the standard strict replay path works on the result.
///
/// After the first damaged chunk the scan resynchronizes on the next
/// chunk magic and keeps judging chunks (so `jdrag fsck` can report the
/// full extent of the damage), but no further events are replayed: site
/// definitions may be missing, so anything past the damage cannot be
/// trusted.
///
/// The record layer decodes each v8 chunk on its own. A legacy (v2-v7)
/// file's chunk bodies go to LegacyStream's record layer
/// (profiler/LegacyStream.h): v4-v7 bodies decode one by one as the walk
/// meets them; v2/v3 records straddle chunks, so the valid prefix's
/// bodies are joined and decoded once the walk ends, and a malformed
/// record then marks the chunk it starts in. Either way the consumer
/// receives v8 records, so salvage writes any of them as v8; the event
/// counts are the input's records.
///
/// The scan is one sequential pass: it decodes every record anyway, and
/// the CRC-32C it adds per chunk is cheap, so `jdrag fsck` and
/// `jdrag salvage` take no `--jobs`.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_PROFILER_STREAMSALVAGE_H
#define JDRAG_PROFILER_STREAMSALVAGE_H

#include "profiler/EventStream.h"

#include <cstddef>
#include <string>
#include <vector>

namespace jdrag::profiler {

struct ChunkVerdict {
  std::uint64_t Offset = 0; ///< file offset of the chunk header
  std::uint32_t Seq = 0;    ///< sequence number from the header
  std::uint32_t PayloadBytes = 0; ///< on-wire payload bytes (compressed
                                  ///< size for a flagged v6+ chunk)
  ChunkStatus Status = ChunkStatus::Ok;

  bool ok() const { return Status == ChunkStatus::Ok; }
};

/// The complete result of scanning one `.jdev` file.
struct SalvageReport {
  /// Non-empty when the file could not be scanned at all (unopenable,
  /// not a regular file, bad file magic, unsupported version). No chunks are judged then.
  std::string FileError;
  std::uint32_t Version = 0;
  std::uint64_t FileBytes = 0;
  std::vector<ChunkVerdict> Chunks;
  /// Index into Chunks of the first damaged chunk (npos when none).
  std::size_t FirstDamaged = npos;
  /// Complete events decoded from the valid prefix.
  std::uint64_t EventsRecovered = 0;
  /// Payload bytes of the valid prefix (complete records only).
  std::uint64_t BytesRecovered = 0;
  /// The valid prefix ended mid-record (the partial record is dropped).
  bool TailPartialRecord = false;
  /// A chunk index footer block (v4 and later) is present at the file
  /// tail.
  bool FooterPresent = false;
  /// The footer parsed and CRC-verified (meaningless if !FooterPresent).
  /// A missing footer is NOT damage (readers rebuild the index); a
  /// present-but-corrupt one is.
  bool FooterOk = false;
  /// Sampling params from a v5+ header (SampleBytes 0 for exact or
  /// pre-v5 recordings). Salvage propagates them to its output so a
  /// recovered sampled recording still scales correctly.
  SamplingParams Sampling;
  /// At least one verified data chunk carried the compressed flag.
  /// Salvage propagates compression to its output too.
  bool Compressed = false;
  /// Compression accounting over every chunk whose payload verified:
  /// uncompressed payload bytes vs bytes actually on disk. Equal when no
  /// chunk is compressed; the ratio Raw/Wire is the headline
  /// `jdrag fsck` space-saving metric.
  std::uint64_t RawPayloadBytes = 0;
  std::uint64_t WirePayloadBytes = 0;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  bool readable() const { return FileError.empty(); }
  /// True when the recording is fully intact (nothing was lost).
  bool clean() const {
    return readable() && FirstDamaged == npos && !TailPartialRecord &&
           (!FooterPresent || FooterOk);
  }
  std::uint64_t chunksOk() const;
  std::uint64_t chunksDamaged() const;
  /// One-paragraph human-readable summary (used by `jdrag fsck`).
  std::string summary(const std::string &Path) const;
};

/// Scans the `.jdev` at \p Path, judging every chunk. When \p C is
/// non-null, the longest valid event prefix is replayed into it (all
/// complete records up to the first damage). Never fails hard on
/// damaged input -- damage is reported in the returned verdicts. For
/// v4-v7 files the terminal chunk index footer is validated separately
/// (FooterPresent/FooterOk) rather than judged as a chunk.
SalvageReport scanEventFile(const std::string &Path, EventConsumer *C);

/// Recovers the longest valid event prefix of \p In and writes it to
/// \p Out as a fresh, fully valid `.jdev` recording. Returns false and
/// sets \p Err only when \p In is unreadable (no prefix exists), \p Out
/// is \p In itself (the same file by any path, hard link or symlink;
/// \p In is left untouched) or \p Out cannot be written; recovering zero
/// events from a readable file still succeeds (and writes a header-only
/// recording). \p Rep, when non-null, receives the scan report of \p In.
/// The output is written in the current default wire format, chunk
/// index footer included. Both passes over \p In are scanEventFile.
bool salvageEventFile(const std::string &In, const std::string &Out,
                      SalvageReport *Rep = nullptr,
                      std::string *Err = nullptr);

} // namespace jdrag::profiler

#endif // JDRAG_PROFILER_STREAMSALVAGE_H
