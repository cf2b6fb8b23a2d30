//===- profiler/LegacyStream.cpp ------------------------------------------===//

#include "profiler/LegacyStream.h"

#include <algorithm>
#include <cstring>
#include <vector>

using namespace jdrag;
using namespace jdrag::profiler;

namespace {

/// v2's fixed 40-byte record: the fields of an EventRecord's first
/// columns, verbatim (EventStream.h's table; a DefineSite's Arg0 is its
/// frame count).
struct V2Record {
  ByteTime Time = 0;
  vm::ObjectId Id = 0;
  std::uint64_t Arg0 = 0;
  std::uint64_t Arg1 = 0;
  SiteId Site = InvalidSite;
  std::uint8_t Kind = 0;
  std::uint8_t Sub = 0;
  std::uint8_t Flags = 0;
  std::uint8_t Reserved = 0;
};
static_assert(sizeof(V2Record) == 40, "v2 wire format is fixed-width");
static_assert(std::is_trivially_copyable_v<V2Record>);

/// One frame of a v2 DefineSite payload.
struct V2Frame {
  std::uint32_t Method = 0;
  std::uint32_t Pc = 0;
  std::uint32_t Line = 0;
};
static_assert(sizeof(V2Frame) == 12);

/// v2: every record is a fixed 40-byte V2Record, and a DefineSite is
/// followed by its FrameCount 12-byte V2Frames.
LegacyRecords decodeV2(std::span<const std::byte> Records, EventConsumer &C) {
  LegacyRecords R;
  std::vector<SiteFrame> Frames;
  auto Malformed = [&](std::string Msg) {
    R.Malformed = true;
    R.Error = "malformed event stream: " + std::move(Msg);
    return R;
  };
  while (R.Bytes != Records.size()) {
    const std::byte *P = Records.data() + R.Bytes;
    std::size_t Avail = Records.size() - R.Bytes;
    if (Avail < sizeof(V2Record)) {
      R.Cut = true;
      break;
    }
    V2Record W2;
    std::memcpy(&W2, P, sizeof(W2));
    if (W2.Kind >= NumEventKinds)
      return Malformed("unknown event kind " + std::to_string(W2.Kind));
    EventRecord E;
    E.Time = W2.Time;
    E.Id = W2.Id;
    E.Arg0 = W2.Arg0;
    E.Arg1 = W2.Arg1;
    E.Site = W2.Site;
    E.Kind = W2.Kind;
    E.Sub = W2.Sub;
    E.Flags = W2.Flags;
    std::size_t Len = sizeof(V2Record);
    if (E.kind() == EventKind::DefineSite) {
      if (E.Arg0 > MaxWireFrames)
        return Malformed("site with " + std::to_string(E.Arg0) + " frames");
      Len += static_cast<std::size_t>(E.Arg0) * sizeof(V2Frame);
      if (Avail < Len) {
        R.Cut = true;
        break;
      }
      Frames.clear();
      for (std::uint64_t I = 0; I != E.Arg0; ++I) {
        V2Frame W;
        std::memcpy(&W, P + sizeof(V2Record) + I * sizeof(V2Frame),
                    sizeof(W));
        Frames.push_back({ir::MethodId(W.Method), W.Pc, W.Line});
      }
      if (const ir::Program *P = C.siteProgram()) {
        std::string Misfit = siteMisfit(*P, E.Site, Frames);
        if (!Misfit.empty()) {
          R.Malformed = true;
          R.Error = std::move(Misfit);
          return R;
        }
      }
      C.onSite(E.Site, Frames);
    } else {
      C.onEvent(E);
    }
    R.Bytes += Len;
    ++R.Events;
  }
  return R;
}

} // namespace

void LegacyTrailers::onEvent(const EventRecord &E) {
  switch (E.kind()) {
  case EventKind::Alloc: {
    // Starts the object's trailer, replacing any live one.
    Trailer &T = Live.insert(E.Id);
    T.Class = static_cast<std::uint32_t>(E.Arg1);
    T.AKind = E.Sub;
    T.IsArray = E.Flags & 1;
    T.Bytes = static_cast<std::uint32_t>(E.Arg0);
    T.AllocTime = E.Time;
    T.AllocSite = E.Site;
    return;
  }
  case EventKind::Use: {
    // No live trailer: a VM-internal object, or one ended already.
    Trailer *T = Live.find(E.Id);
    if (!T)
      return;
    bool DuringOwnInit = E.Flags & 1;
    // The first use *outside* construction anchors the lag phase.
    if (!DuringOwnInit && !T->UsedOutsideInit) {
      T->UsedOutsideInit = true;
      T->FirstUseTime = E.Time;
      T->FirstUseBoundary = Boundary;
    }
    T->LastUseTime = T->UseCount ? std::max(T->LastUseTime, E.Time) : E.Time;
    T->LastUseBoundary =
        T->UseCount ? std::max(T->LastUseBoundary, Boundary) : Boundary;
    T->LastUseSite = E.Site;
    ++T->UseCount;
    return;
  }
  case EventKind::DeepGCEnd:
    Boundary = E.Time;
    break;
  case EventKind::Collect:
  case EventKind::Survivor: {
    const Trailer *T = Live.find(E.Id);
    if (!T)
      return;
    EventRecord R;
    R.Kind = E.Kind;
    R.Time = E.Time;
    R.Id = E.Id;
    R.Arg0 = T->Bytes;
    R.Arg1 = T->Class;
    R.Site = T->AllocSite;
    R.Sub = T->AKind;
    R.Flags = static_cast<std::uint8_t>(
        (T->IsArray ? RecordIsArray : 0) |
        (T->UsedOutsideInit ? RecordUsedOutsideInit : 0));
    R.AllocTime = T->AllocTime;
    R.UseCount = T->UseCount;
    R.LastUseSite = T->UseCount ? T->LastUseSite : InvalidSite;
    // A use the object did not have reads as its alloc time, like a v8
    // record's. A use a backwards clock put before the alloc reads as
    // the alloc time too: every consumer takes the later of the two.
    R.FirstUseTime = R.FirstUseBoundary = R.AllocTime;
    R.LastUseTime = R.LastUseBoundary = R.AllocTime;
    if (T->UsedOutsideInit) {
      R.FirstUseTime = std::max(T->FirstUseTime, R.AllocTime);
      R.FirstUseBoundary = T->FirstUseBoundary;
    }
    if (T->UseCount) {
      R.LastUseTime = std::max(T->LastUseTime, R.AllocTime);
      R.LastUseBoundary = T->LastUseBoundary;
    }
    Live.erase(E.Id);
    Out.onEvent(R);
    return;
  }
  default:
    break;
  }
  Out.onEvent(E);
}

namespace jdrag::profiler {
/// A StreamDecoder over the legacy record loop of format \p F: v7's
/// delta-id loop, or the absolute-id loop of v3-v6. Each is instantiated
/// here once, for EventConsumer (a friend of StreamDecoder, declared
/// nowhere else).
StreamDecoder legacyRecordDecoder(EventConsumer &C, WireFormat F);
} // namespace jdrag::profiler

StreamDecoder jdrag::profiler::legacyRecordDecoder(EventConsumer &C,
                                                   WireFormat F) {
  if (F == WireFormat::V7)
    return StreamDecoder(C,
                         &StreamDecoder::loop<EventConsumer, WireFormat::V7>);
  return StreamDecoder(C, &StreamDecoder::loop<EventConsumer, WireFormat::V6>);
}

LegacyRecordLayer::LegacyRecordLayer(WireFormat F, EventConsumer &C)
    : F(F), Trailers(C), Records(legacyRecordDecoder(Trailers, F)) {}

bool LegacyRecordLayer::chunk(std::span<const std::byte> Body) {
  if (!footers()) { // v2/v3 records straddle chunks
    Joined.insert(Joined.end(), Body.begin(), Body.end());
    Sizes.push_back(Body.size());
    return true;
  }
  return Records.decodeChunk(Body.data(), Body.size());
}

LegacyRecords LegacyRecordLayer::finish() {
  LegacyRecords R;
  if (F == WireFormat::V2) {
    R = decodeV2(Joined, Trailers);
  } else {
    // v3 chains its time deltas from zero across the whole stream, so
    // its joined payload is one body of the absolute-id loop.
    bool Ok = footers() || Records.decodeChunk(Joined.data(), Joined.size());
    R.Events = Records.eventsDecoded();
    R.Bytes = Records.bytesDecoded();
    R.Cut = Records.recordCut();
    R.Malformed = !Ok && !R.Cut;
    if (R.Malformed)
      R.Error = Records.error();
  }
  // The joined body a malformed record starts in.
  for (std::size_t At = R.Bytes; R.Malformed && At >= Sizes[R.Chunk];
       ++R.Chunk)
    At -= Sizes[R.Chunk];
  return R;
}

LegacyStatus jdrag::profiler::replayLegacyStream(
    std::span<const std::byte> Framed, WireFormat F, EventConsumer &C,
    std::string &Err, bool *Compressed) {
  LegacyRecordLayer Records(F, C);
  std::vector<std::uint8_t> Inflate;
  bool FooterSeen = false;
  std::uint32_t Seq = 0;
  for (std::size_t Off = 0; Off != Framed.size();) {
    ChunkFrame Fr = readFrame(Framed.subspan(Off), F);
    FramePayload P;
    if (!judgeStreamFrame(Fr, Seq, FooterSeen, Records.footers(), Inflate, P,
                          Err))
      return LegacyStatus::Corrupt;
    if (Fr.Status != ChunkStatus::Ok)
      return LegacyStatus::Truncated;
    FooterSeen |= Fr.Footer;
    if (!Fr.Footer) {
      if (!Records.chunk(P.Body)) {
        Err = chunkRecordsError(Records.records(), Seq);
        return LegacyStatus::Corrupt;
      }
      if (Compressed)
        *Compressed |= Fr.Compressed;
      ++Seq;
    }
    Off += Fr.Extent;
  }
  LegacyRecords R = Records.finish();
  if (R.Malformed) {
    Err = R.Error;
    return LegacyStatus::Corrupt;
  }
  return R.Cut ? LegacyStatus::Truncated : LegacyStatus::Ok;
}
