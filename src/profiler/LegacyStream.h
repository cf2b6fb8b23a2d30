//===- profiler/LegacyStream.h - The v2-v6 stream reader --------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one reader of the read-only formats v2 through v6. Nothing writes
/// them; the committed fixtures in tests/data pin them. Every other
/// reader takes v7 only. Reading one takes two steps:
///
///   1. verify each frame through the chunk-frame verifier in
///      profiler/EventStream.h, with FrameDecoder's checks in
///      FrameDecoder's order. A v4-v6 stream may end in a chunk index
///      footer, which is verified and skipped; a v2/v3 stream has none,
///      so a footer frame there is bad magic.
///   2. hand each verified chunk body to the record layer
///      (LegacyRecordLayer). v4-v6 bodies are self-contained and decode
///      one by one, like v7 bodies but with absolute object ids. v2/v3
///      records may straddle chunks, so their bodies are joined and
///      decoded at the end: a joined v3 payload is one body of the same
///      absolute-id loop whose time base is 0, and v2's fixed 40-byte
///      records have their own small decoder here.
///
/// replayFile, replayBytes and the record layer of the salvage scan send
/// legacy input here. Index rebuild, sharded replay and jdragd refuse
/// it; `jdrag salvage` rewrites a legacy recording as v7.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_PROFILER_LEGACYSTREAM_H
#define JDRAG_PROFILER_LEGACYSTREAM_H

#include "profiler/EventStream.h"

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

/// Step 2 for one legacy stream: takes its verified chunk bodies in
/// stream order and dispatches their records to a consumer.
class LegacyRecordLayer {
public:
  LegacyRecordLayer(WireFormat F, EventConsumer &C);

  /// True when the stream may end in a chunk index footer (v4-v6).
  bool footers() const { return F >= WireFormat::V4; }

  /// The next verified chunk body. A v4-v6 body decodes now; false at a
  /// malformed or cut record (records() says which), after which no
  /// more bodies may come. A v2/v3 body is kept for finish().
  bool chunk(std::span<const std::byte> Body);

  /// Decodes the kept v2/v3 bodies, stopping at the first malformed or
  /// cut-off record, and reports what the stream gave (for v4-v6, the
  /// records of the bodies chunk() decoded).
  LegacyRecords finish();

  /// The v4-v6 record layer.
  const StreamDecoder &records() const { return Records; }

private:
  WireFormat F;
  EventConsumer &C;
  StreamDecoder Records; ///< the absolute-id loop (v3-v6)
  std::vector<std::byte> Joined;
  std::vector<std::size_t> Sizes; ///< of the joined bodies
};

enum class LegacyStatus : std::uint8_t {
  Ok,
  Truncated, ///< the stream ends inside a frame or a record
  Corrupt,   ///< a frame check failed or a record is malformed
};

/// Both steps over the framed legacy stream \p Framed (no file header),
/// with FrameDecoder's error texts. A v2/v3 stream delivers nothing to
/// \p C unless every frame verifies; a v4-v6 one delivers the records of
/// the chunks before the first damage, as FrameDecoder does. \p Err
/// describes a Corrupt result; \p Compressed (if non-null) is set when a
/// verified data chunk carried the compressed flag.
LegacyStatus replayLegacyStream(std::span<const std::byte> Framed,
                                WireFormat F, EventConsumer &C,
                                std::string &Err,
                                bool *Compressed = nullptr);

} // namespace jdrag::profiler

#endif // JDRAG_PROFILER_LEGACYSTREAM_H
