//===- profiler/LegacyStream.cpp ------------------------------------------===//

#include "profiler/LegacyStream.h"

#include <cstring>
#include <vector>

using namespace jdrag;
using namespace jdrag::profiler;

namespace {

/// v2: every record is a fixed 40-byte EventRecord, and a DefineSite is
/// followed by its FrameCount 12-byte WireFrames.
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
    if (Avail < sizeof(EventRecord)) {
      R.Cut = true;
      break;
    }
    EventRecord E;
    std::memcpy(&E, P, sizeof(E));
    if (E.Kind >= NumEventKinds)
      return Malformed("unknown event kind " + std::to_string(E.Kind));
    std::size_t Len = sizeof(EventRecord);
    if (E.kind() == EventKind::DefineSite) {
      if (E.Arg0 > MaxWireFrames)
        return Malformed("site with " + std::to_string(E.Arg0) + " frames");
      Len += static_cast<std::size_t>(E.Arg0) * sizeof(WireFrame);
      if (Avail < Len) {
        R.Cut = true;
        break;
      }
      Frames.clear();
      for (std::uint64_t I = 0; I != E.Arg0; ++I) {
        WireFrame W;
        std::memcpy(&W, P + sizeof(EventRecord) + I * sizeof(WireFrame),
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

namespace jdrag::profiler {
/// A StreamDecoder over the absolute-id record loop of v3-v6 bodies,
/// instantiated here once, for EventConsumer (a friend of StreamDecoder,
/// declared nowhere else).
StreamDecoder legacyIdDecoder(EventConsumer &C);
} // namespace jdrag::profiler

StreamDecoder jdrag::profiler::legacyIdDecoder(EventConsumer &C) {
  return StreamDecoder(C, &StreamDecoder::loop<EventConsumer, false>);
}

LegacyRecordLayer::LegacyRecordLayer(WireFormat F, EventConsumer &C)
    : F(F), C(C), Records(legacyIdDecoder(C)) {}

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
    R = decodeV2(Joined, C);
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
