//===- tests/HostileStream.h - CRC-valid streams with hostile ids -*- C++ -*-===//
//
// Part of jdrag test suite.
//
//===----------------------------------------------------------------------===//

#ifndef JDRAG_TESTS_HOSTILESTREAM_H
#define JDRAG_TESTS_HOSTILESTREAM_H

#include "profiler/EventStream.h"

#include <cstdint>

namespace jdrag::testutil {

/// Writes a well-formed two-chunk stream through \p Buf whose second
/// object carries the id \p Hostile: chunk 0 allocates object 1 and the
/// hostile object, chunk 1 uses the hostile object, collects object 1,
/// keeps the hostile one to the end and terminates. Every frame is
/// CRC-valid, so only the id itself is hostile: a table sized by the id
/// space rather than the live objects would need ~Hostile/64 directory
/// entries to hold it. Both objects are class 0, allocated at no site.
inline void writeHostileIdEvents(profiler::EventBuffer &Buf,
                                 std::uint64_t Hostile) {
  using profiler::EventKind;
  auto Event = [&](EventKind K, ByteTime Time, std::uint64_t Id) {
    profiler::EventRecord E;
    E.Kind = static_cast<std::uint8_t>(K);
    E.Time = Time;
    E.Id = Id;
    if (K == EventKind::Alloc)
      E.Arg0 = 16; // bytes; Arg1 (class) stays 0
    Buf.writeEvent(E);
  };
  Event(EventKind::Alloc, 16, 1);
  Event(EventKind::Alloc, 32, Hostile);
  Buf.flush();
  Event(EventKind::Use, 48, Hostile);
  Event(EventKind::Collect, 64, 1);
  Event(EventKind::Survivor, 80, Hostile);
  Event(EventKind::Terminate, 80, 0);
  Buf.finishStream();
}

} // namespace jdrag::testutil

#endif // JDRAG_TESTS_HOSTILESTREAM_H
