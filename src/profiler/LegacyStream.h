//===- profiler/LegacyStream.h - The v2/v3 stream reader --------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one reader of the read-only v2 and v3 formats, and the only code
/// that knows a record can straddle chunks. Nothing writes either
/// format; the committed fixtures in tests/data pin them. Reading one
/// takes three steps:
///
///   1. verify each frame through the chunk-frame verifier in
///      profiler/EventStream.h, checking the sequence number before
///      truncation as FrameDecoder does (a footer is bad magic here);
///   2. join the verified payloads into one buffer;
///   3. decode that buffer into an EventConsumer. A joined v3 payload
///      is exactly one self-contained v4 chunk body whose time base is
///      0, so StreamDecoder reads it; v2's fixed 40-byte records have
///      their own small decoder here.
///
/// replayFile, replayBytes and the record layer of the salvage scan send
/// legacy input here. Index rebuild, sharded replay and jdragd refuse
/// it; `jdrag salvage` rewrites a legacy recording in the current
/// format.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_PROFILER_LEGACYSTREAM_H
#define JDRAG_PROFILER_LEGACYSTREAM_H

#include "profiler/EventStream.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace jdrag::profiler {

/// How far step 3 got through a joined v2/v3 record stream.
struct LegacyRecords {
  std::uint64_t Events = 0; ///< records dispatched to the consumer
  std::size_t Bytes = 0;    ///< bytes of those records; decoding
                            ///< stopped here
  bool Malformed = false;   ///< stopped at a malformed record
  bool Cut = false;         ///< stopped at a record the end of the
                            ///< bytes cuts off
  std::string Error;        ///< what was malformed
};

/// Step 3: decodes the joined payloads \p Records of a v2/v3 stream into
/// \p C, stopping at the first malformed or cut-off record.
LegacyRecords decodeLegacyRecords(std::span<const std::byte> Records,
                                  WireFormat F, EventConsumer &C);

enum class LegacyStatus : std::uint8_t {
  Ok,
  Truncated, ///< the stream ends inside a frame or a record
  Corrupt,   ///< a frame check failed or a record is malformed
};

/// All three steps over the framed v2/v3 stream \p Framed (no file
/// header). Nothing reaches \p C unless every frame verifies. \p Err
/// describes a Corrupt result.
LegacyStatus replayLegacyStream(std::span<const std::byte> Framed,
                                WireFormat F, EventConsumer &C,
                                std::string &Err);

} // namespace jdrag::profiler

#endif // JDRAG_PROFILER_LEGACYSTREAM_H
