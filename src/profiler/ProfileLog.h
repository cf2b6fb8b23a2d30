//===- profiler/ProfileLog.h - Per-object trailer log -----------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output of profiling phase 1: one ObjectRecord per reclaimed (or
/// surviving) object, mirroring the paper's object trailer -- creation
/// time, last-use time, length in bytes, nested allocation site, nested
/// last-use site -- plus per-GC heap samples. ProfileLog round-trips to a
/// binary file so phase 2 (the drag analyzer) can run offline, exactly as
/// the paper's two-phase tool does. Ids in the file are relative to the
/// Program that produced it.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_PROFILER_PROFILELOG_H
#define JDRAG_PROFILER_PROFILELOG_H

#include "profiler/SiteTable.h"
#include "support/Units.h"
#include "vm/Value.h"

#include <string>
#include <vector>

namespace jdrag::profiler {

/// The logged trailer of one object (paper section 2.1.1).
struct ObjectRecord {
  vm::ObjectId Id = 0;
  ir::ClassId Class;                        ///< invalid for arrays
  ir::ArrayKind AKind = ir::ArrayKind::Int; ///< valid if IsArray
  bool IsArray = false;
  std::uint32_t Bytes = 0;
  ByteTime AllocTime = 0;
  ByteTime FirstUseTime = 0; ///< == AllocTime when never used
  ByteTime LastUseTime = 0;  ///< == AllocTime when never used
  ByteTime CollectTime = 0;  ///< reclamation, or termination for survivors
  SiteId AllocSite = InvalidSite;   ///< nested allocation site
  SiteId LastUseSite = InvalidSite; ///< nested last-use site, if ever used
  std::uint32_t UseCount = 0;
  bool UsedOutsideInit = false; ///< false => "never-used" per the paper
  bool SurvivedToEnd = false;

  /// Time the object was reachable but no longer in use.
  ByteTime dragTime() const { return CollectTime - LastUseTime; }
  /// Time the object was reachable.
  ByteTime lifeTime() const { return CollectTime - AllocTime; }
  /// Time the object was in use (alloc to last use).
  ByteTime inUseTime() const { return LastUseTime - AllocTime; }
  /// Roejemo & Runciman's finer lifetime decomposition (the paper's
  /// Figure 1 is their model): lag = creation to first use, use = first
  /// to last use, drag = last use to unreachable; a never-used object's
  /// whole lifetime is *void*.
  ByteTime lagTime() const {
    return neverUsed() ? 0 : FirstUseTime - AllocTime;
  }
  ByteTime useTime() const {
    return neverUsed() ? 0 : LastUseTime - FirstUseTime;
  }
  ByteTime voidTime() const { return neverUsed() ? lifeTime() : 0; }
  /// The paper's drag space-time product, in byte^2.
  SpaceTime drag() const {
    return static_cast<SpaceTime>(Bytes) *
           static_cast<SpaceTime>(dragTime());
  }
  /// True if the object was never used outside its own constructor.
  bool neverUsed() const { return !UsedOutsideInit; }
};

/// One reachable-heap sample taken at a GC.
struct GCSample {
  ByteTime Time = 0;
  std::uint64_t ReachableBytes = 0;
  std::uint64_t ReachableObjects = 0;
};

/// `.jdlog` file magic ("jdragv07"): leads every serialized ProfileLog,
/// so tools can tell an object log from an event recording by the first
/// 8 bytes (cf. StreamFileMagic). v05 -> v06 added the sampling fields;
/// v06 -> v07 added the Compressed provenance flag.
inline constexpr std::uint64_t ProfileLogMagic = 0x6a64726167763037ULL;

/// The complete phase-1 output.
class ProfileLog {
public:
  std::vector<ObjectRecord> Records;
  std::vector<GCSample> GCSamples;
  SiteTable Sites;
  ByteTime EndTime = 0;
  /// False when the event stream behind this log lost chunks (sink
  /// failure during recording): every analysis over it is a lower
  /// bound, and reports must say so.
  bool Complete = true;
  /// Extent of the loss when !Complete (from profiler::StreamHealth).
  std::uint64_t DroppedChunks = 0;
  std::uint64_t DroppedBytes = 0;
  /// Delivery effort behind the recording, also from StreamHealth: how
  /// many transient sink errors were retried and the errno of the last
  /// failure. Nonzero retries on a Complete log are normal (the retries
  /// *succeeded*); `jdrag fsck` surfaces them so a flaky disk or daemon
  /// link is visible before it escalates into drops.
  std::uint32_t Retries = 0;
  std::int32_t LastErrno = 0;
  /// Byte interval of the allocation sampling behind this log (0 =
  /// exact: every object has a record). Nonzero means Records are a
  /// size-weighted subset and byte-weighted aggregates must be scaled
  /// by inverse inclusion probability (profiler/Sampling.h) -- the
  /// analysis layer does this when SampleRate != 0.
  std::uint64_t SampleRate = 0;
  /// Seed of the sampling PRNG (reproducibility bookkeeping).
  std::uint64_t SampleSeed = 0;
  /// At least one data chunk of the event stream behind this log was
  /// compressed (provenance only -- decompressed streams are
  /// bit-identical, so nothing downstream scales or changes by this).
  bool Compressed = false;

  /// Serializes to \p Path. Returns false on I/O error.
  bool writeFile(const std::string &Path) const;

  /// Deserializes from \p Path. Returns false on I/O or format error.
  static bool readFile(const std::string &Path, ProfileLog &Out);

  /// Total drag over all records, in byte^2.
  SpaceTime totalDrag() const;

  /// Space-time integral of reachable bytes (byte^2): sum of
  /// bytes x lifetime. Equals the area under Figure 2's reachable curve.
  SpaceTime reachableIntegral() const;

  /// Space-time integral of in-use bytes (byte^2).
  SpaceTime inUseIntegral() const;
};

} // namespace jdrag::profiler

#endif // JDRAG_PROFILER_PROFILELOG_H
