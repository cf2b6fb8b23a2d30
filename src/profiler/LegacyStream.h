//===- profiler/LegacyStream.h - The v2-v7 stream reader --------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one reader of the read-only formats v2 through v7. Nothing writes
/// them; the committed fixtures in tests/data pin them. Every other
/// reader takes v8 only. Reading one takes three steps:
///
///   1. verify each frame through the chunk-frame verifier in
///      profiler/EventStream.h, with FrameDecoder's checks in
///      FrameDecoder's order. A v4-v6 stream may end in a chunk index
///      footer, which is verified and skipped; a v2/v3 stream has none,
///      so a footer frame there is bad magic.
///   2. hand each verified chunk body to the record layer
///      (LegacyRecordLayer). v4-v7 bodies are self-contained and decode
///      one by one: v7's with delta-coded object ids, v4-v6's with
///      absolute ones. v2/v3 records may straddle chunks, so their
///      bodies are joined and decoded at the end: a joined v3 payload is
///      one body of the same absolute-id loop whose time base is 0, and
///      v2's fixed 40-byte records have their own small decoder here.
///   3. rebuild each object's trailer from its Alloc and Use records
///      (the trailer rules, in a side table keyed by object id --
///      profiler/ObjectTable.h) and hand the consumer, at the object's
///      Collect or Survivor, the finished record a v8 stream carries.
///      Objects with no Alloc (a VM-internal object such as the
///      preallocated OutOfMemoryError instance) yield no record. The
///      consumer never sees an Alloc or Use.
///
/// replayFile, replayBytes and the record layer of the salvage scan send
/// legacy input here. Index rebuild, sharded replay and jdragd refuse
/// it; `jdrag salvage` rewrites a legacy recording as v8.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_PROFILER_LEGACYSTREAM_H
#define JDRAG_PROFILER_LEGACYSTREAM_H

#include "profiler/EventStream.h"
#include "profiler/ObjectTable.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace jdrag::profiler {

/// How far a legacy record layer got.
struct LegacyRecords {
  std::uint64_t Events = 0; ///< records dispatched to the consumer
  std::size_t Bytes = 0;    ///< bytes of those records; decoding
                            ///< stopped here
  bool Malformed = false;   ///< stopped at a malformed v2/v3 record
                            ///< (a v4-v6 one fails chunk())
  bool Cut = false;         ///< stopped at a record the end of the
                            ///< bytes cuts off
  std::size_t Chunk = 0;    ///< the chunk (from 0) a malformed record
                            ///< starts in
  std::string Error;        ///< what was malformed
};

/// Step 3: the trailer rules of the legacy formats. Sits in front of a
/// consumer, keeps one trailer per live object from its Alloc and Use
/// records, and turns its Collect/Survivor into the finished record of
/// a v8 stream (EventRecord); sites and every other record pass
/// through. A use's time and the deep-GC boundary in force at it (the
/// last DeepGCEnd before it) are both kept, so the consumer applies
/// the snap rule, or not, exactly as it does to a v8 record. The last
/// use is kept as the maxima of the use times and boundaries, which is
/// what a consumer takes even when a hostile clock runs backwards.
class LegacyTrailers final : public EventConsumer {
public:
  explicit LegacyTrailers(EventConsumer &Out) : Out(Out) {}

  void onSite(SiteId Id, std::span<const SiteFrame> Frames) override {
    Out.onSite(Id, Frames);
  }
  const ir::Program *siteProgram() const override {
    return Out.siteProgram();
  }
  void onEvent(const EventRecord &E) override;

private:
  /// What an object's Alloc and Use records said so far.
  struct Trailer {
    ByteTime AllocTime = 0;
    ByteTime FirstUseTime = 0;
    ByteTime FirstUseBoundary = 0;
    ByteTime LastUseTime = 0;
    ByteTime LastUseBoundary = 0;
    std::uint32_t Class = 0;
    std::uint32_t Bytes = 0;
    SiteId AllocSite = InvalidSite;
    SiteId LastUseSite = InvalidSite;
    std::uint32_t UseCount = 0;
    std::uint8_t AKind = 0;
    bool IsArray = false;
    bool UsedOutsideInit = false;
  };

  EventConsumer &Out;
  ObjectTable<Trailer> Live;
  ByteTime Boundary = 0; ///< the last DeepGCEnd's time
};

/// Step 2 for one legacy stream: takes its verified chunk bodies in
/// stream order and dispatches their records, through step 3, to a
/// consumer.
class LegacyRecordLayer {
public:
  LegacyRecordLayer(WireFormat F, EventConsumer &C);

  /// True when the stream may end in a chunk index footer (v4-v7).
  bool footers() const { return F >= WireFormat::V4; }

  /// The next verified chunk body. A v4-v7 body decodes now; false at a
  /// malformed or cut record (records() says which), after which no
  /// more bodies may come. A v2/v3 body is kept for finish().
  bool chunk(std::span<const std::byte> Body);

  /// Decodes the kept v2/v3 bodies, stopping at the first malformed or
  /// cut-off record, and reports what the stream gave (for v4-v7, the
  /// records of the bodies chunk() decoded).
  LegacyRecords finish();

  /// The v3-v7 record layer.
  const StreamDecoder &records() const { return Records; }

private:
  WireFormat F;
  LegacyTrailers Trailers;
  StreamDecoder Records; ///< the v3-v6 or v7 loop, into Trailers
  std::vector<std::byte> Joined;
  std::vector<std::size_t> Sizes; ///< of the joined bodies
};

enum class LegacyStatus : std::uint8_t {
  Ok,
  Truncated, ///< the stream ends inside a frame or a record
  Corrupt,   ///< a frame check failed or a record is malformed
};

/// All steps over the framed legacy stream \p Framed (no file header),
/// with FrameDecoder's error texts. A v2/v3 stream delivers nothing to
/// \p C unless every frame verifies; a v4-v7 one delivers the records of
/// the chunks before the first damage, as FrameDecoder does. \p Err
/// describes a Corrupt result; \p Compressed (if non-null) is set when a
/// verified data chunk carried the compressed flag.
LegacyStatus replayLegacyStream(std::span<const std::byte> Framed,
                                WireFormat F, EventConsumer &C,
                                std::string &Err,
                                bool *Compressed = nullptr);

} // namespace jdrag::profiler

#endif // JDRAG_PROFILER_LEGACYSTREAM_H
