//===- profiler/ParallelReplay.cpp ----------------------------------------===//

#include "profiler/ParallelReplay.h"


#include <thread>
#include <utility>

using namespace jdrag;
using namespace jdrag::profiler;
using namespace jdrag::vm;

namespace {

/// Everything one worker produces from its chunk range besides the
/// records it folds.
struct ShardResult {
  std::vector<GCSample> Samples;
  /// DefineSite records in arrival order (stream id + frames); interned
  /// into the merged SiteTable in shard order, reproducing stream order.
  std::vector<std::pair<SiteId, std::vector<SiteFrame>>> Sites;
  ByteTime TerminateTime = 0;
  bool SawTerminate = false;
  bool Failed = false;
};

/// The map side: turns every Collect/Survivor of one shard into its
/// record through DragProfiler's record rule (RecordRule) and folds it;
/// the record keeps stream site ids. Final, so the shard's record loop
/// is instantiated for it (RecordTarget).
class ShardConsumer final : public EventConsumer {
public:
  ShardConsumer(const ir::Program &P, ShardResult &R, const RecordRule &Rule,
                unsigned Index, ShardFoldSink &Fold)
      : P(P), R(R), Rule(Rule), Index(Index), Fold(Fold) {}

  const ir::Program *siteProgram() const override { return &P; }

  void onSite(SiteId Id, std::span<const SiteFrame> Frames) override {
    R.Sites.emplace_back(Id,
                         std::vector<SiteFrame>(Frames.begin(), Frames.end()));
  }

  [[gnu::always_inline]] void onEvent(const EventRecord &E) override {
    switch (E.kind()) {
    case EventKind::GCEnd:
      R.Samples.push_back({E.Time, E.Arg0, E.Arg1});
      break;
    case EventKind::Collect:
    case EventKind::Survivor: {
      ObjectRecord Rec;
      if (Rule.build(E, Rec))
        Fold.onShardRecord(Index, Rec);
      break;
    }
    case EventKind::Terminate:
      R.SawTerminate = true;
      R.TerminateTime = E.Time;
      break;
    case EventKind::Alloc:
    case EventKind::Use:
    case EventKind::DeepGCEnd:
    case EventKind::DefineSite:
      break;
    }
  }

private:
  const ir::Program &P;
  ShardResult &R;
  const RecordRule &Rule;
  unsigned Index;
  ShardFoldSink &Fold;
};

/// Everything the sharded replay needs from the file before it can
/// split it: the raw bytes, parsed header fields, the framed chunk
/// region and a chunk index with at least two entries.
struct ShardedStream {
  std::vector<std::byte> Bytes;
  SamplingParams Sampling;
  std::span<const std::byte> Framed;
  ChunkIndex Idx;
};

/// Returns false when anything prevents sharding -- unreadable file, bad
/// header, a legacy (v2-v7) stream, a damaged footer, a stream the index
/// rebuild rejects, or too few chunks to split -- so the caller runs the
/// sequential path, which produces the canonical result or error
/// message for that input.
bool loadForSharding(const std::string &Path, ShardedStream &S) {
  StreamHeaderInfo Hdr;
  if (!readWholeFile(Path, S.Bytes) || !parseStreamHeader(S.Bytes, Hdr) ||
      legacyFormat(Hdr.Format))
    return false;
  S.Sampling = Hdr.Sampling;
  std::size_t HeaderBytes = streamHeaderBytes(Hdr.Format);
  S.Framed = std::span<const std::byte>(S.Bytes.data() + HeaderBytes,
                                        S.Bytes.size() - HeaderBytes);
  if (S.Framed.empty())
    return false; // header-only recording
  if (footerBlockSize(S.Framed) != 0) {
    // A structurally present but unparsable footer is damage; let the
    // strict sequential path report it.
    if (!readChunkIndexFooter(S.Framed, S.Idx))
      return false;
  } else if (!rebuildChunkIndex(S.Framed, S.Idx)) {
    return false;
  }
  return S.Idx.Entries.size() >= 2;
}

/// Re-verifies chunk \p GlobalIdx against its index entry: header
/// fields, CRC, and (for footer-sourced indexes) the footer's own
/// claims. The index construction already bounds-checked every offset,
/// so the reads here cannot run off the stream. On success \p Body is
/// the chunk's record payload -- decompressed into \p Inflate for a
/// flagged chunk, the raw wire bytes otherwise (the CRC always covers
/// the uncompressed payload).
bool validateChunk(const ShardedStream &S, std::size_t GlobalIdx,
                   std::vector<std::uint8_t> &Inflate,
                   std::span<const std::byte> &Body) {
  const ChunkIndexEntry &En = S.Idx.Entries[GlobalIdx];
  ChunkFrame Fr = readFrame(S.Framed.subspan(En.Offset));
  if (Fr.Footer || Fr.Status != ChunkStatus::Ok ||
      Fr.H.Seq != En.Seq || Fr.H.PayloadBytes != En.PayloadBytes ||
      En.Seq != static_cast<std::uint32_t>(GlobalIdx))
    return false;
  FramePayload P = verifyPayload(Fr, Inflate);
  Body = P.Body;
  return P.Status == ChunkStatus::Ok &&
         (!S.Idx.FromFooter || En.Crc == Fr.H.Crc);
}

/// Decodes chunks [B, E) of the stream into \p C. Every chunk is
/// self-contained, so each one decodes on its own. False on any chunk
/// that fails validation, decoding, or its index record count.
bool runShard(const ShardedStream &S, std::size_t B, std::size_t E,
              RecordTarget C) {
  StreamDecoder Dec(C);
  std::vector<std::uint8_t> Inflate; // per-shard decompression scratch
  std::span<const std::byte> Body;
  for (std::size_t I = B; I < E; ++I) {
    if (!validateChunk(S, I, Inflate, Body))
      return false;
    std::uint64_t Before = Dec.eventsDecoded();
    if (!Dec.decodeChunk(Body.data(), Body.size()) ||
        Dec.eventsDecoded() - Before != S.Idx.Entries[I].RecordCount)
      return false;
  }
  return true;
}

/// Partitions chunks into at most \p Jobs contiguous ranges balanced by
/// payload bytes and decodes them on one thread each. Returns false if
/// any shard failed.
bool runSharded(const ShardedStream &S, const ir::Program &P,
                const ProfilerConfig &Config, unsigned Jobs,
                ShardFoldSink &Fold, std::vector<ShardResult> &Shards) {
  std::size_t N = S.Idx.Entries.size();
  std::size_t Count = std::min<std::size_t>(Jobs, N);
  // Balance by on-wire bytes (masking the compressed flag).
  std::uint64_t Total = 0;
  for (const ChunkIndexEntry &En : S.Idx.Entries)
    Total += chunkWireBytes(En.PayloadBytes);
  std::vector<std::size_t> Cut(Count + 1, 0);
  Cut[Count] = N;
  std::size_t I = 0;
  std::uint64_t Acc = 0;
  for (std::size_t K = 1; K < Count; ++K) {
    std::uint64_t Target = Total * K / Count;
    // Every shard gets at least one chunk, and leaves one for each
    // shard after it.
    while (I < N - (Count - K) && (Acc < Target || I == Cut[K - 1]))
      Acc += chunkWireBytes(S.Idx.Entries[I++].PayloadBytes);
    Cut[K] = I;
  }

  // A retry decodes the stream again, so the fold must drop whatever a
  // failed attempt already folded.
  Fold.beginAttempt(static_cast<unsigned>(Count));
  Shards.assign(Count, ShardResult());
  RecordRule Rule(Config);
  std::vector<std::thread> Threads;
  Threads.reserve(Count);
  for (std::size_t K = 0; K < Count; ++K)
    Threads.emplace_back([&, K] {
      ShardConsumer C(P, Shards[K], Rule, static_cast<unsigned>(K), Fold);
      Shards[K].Failed = !runShard(S, Cut[K], Cut[K + 1], C);
    });
  for (std::thread &T : Threads)
    T.join();
  for (const ShardResult &Sh : Shards)
    if (Sh.Failed)
      return false;
  return true;
}

/// The reduce side: concatenates the shards' sites, GC samples and end
/// time in shard order into \p Shell, the record-free log, and sets
/// \p SiteMap to the stream-id -> Shell.Sites-id map. Every record is
/// self-contained, so nothing crosses a shard boundary.
void mergeShards(std::vector<ShardResult> &Shards, ProfileLog &Shell,
                 std::vector<SiteId> &SiteMap) {
  ProfileLog Log;
  Log.GCSamples.reserve(64);
  // Sites: interning in shard order reproduces stream arrival order,
  // hence the sequential profiler's local ids.
  SiteMap.clear();
  SiteMap.reserve(256);
  for (ShardResult &Sh : Shards) {
    for (auto &[StreamId, Frames] : Sh.Sites) {
      SiteId Local = Log.Sites.internFrames(std::move(Frames));
      if (StreamId >= SiteMap.size())
        SiteMap.resize(StreamId + 1, InvalidSite);
      SiteMap[StreamId] = Local;
    }
    Log.GCSamples.insert(Log.GCSamples.end(), Sh.Samples.begin(),
                         Sh.Samples.end());
    if (Sh.SawTerminate)
      Log.EndTime = Sh.TerminateTime;
  }
  Shell = std::move(Log);
}

} // namespace

unsigned jdrag::profiler::defaultReplayJobs() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

bool jdrag::profiler::replayProfileParallelFold(
    const std::string &Path, const ir::Program &P, ProfilerConfig Config,
    unsigned Jobs, ShardFoldSink &Sink, ProfileLog &Shell,
    std::vector<SiteId> &SiteMapOut, std::string *Err) {
  if (Jobs == 0)
    Jobs = defaultReplayJobs();
  ShardedStream S;
  if (Jobs > 1 && loadForSharding(Path, S)) {
    for (int Attempt = 0; Attempt < 2; ++Attempt) {
      std::vector<ShardResult> Shards;
      if (runSharded(S, P, Config, Jobs, Sink, Shards)) {
        mergeShards(Shards, Shell, SiteMapOut);
        Shell.SampleRate = S.Sampling.SampleBytes;
        Shell.SampleSeed = S.Sampling.enabled() ? S.Sampling.SampleSeed : 0;
        Shell.Compressed = S.Idx.compressed();
        return true;
      }
      // A footer is a producer claim; when reality disagrees, distrust
      // it once, rebuild the index from the bytes and re-shard. A
      // failure against a *rebuilt* index means real damage --
      // sequential replay owns the error message for that.
      if (!S.Idx.FromFooter)
        break;
      ChunkIndex Rebuilt;
      if (!rebuildChunkIndex(S.Framed, Rebuilt))
        break;
      S.Idx = std::move(Rebuilt);
    }
  }

  // The sequential path owns the result -- or the canonical error -- for
  // everything the shards do not take: one logical shard, fed by the
  // streaming profiler. Its records already carry log-local site ids, so
  // the map the caller remaps with is the identity over Shell.Sites.
  Sink.beginAttempt(1);
  class Adapter : public RecordSink {
  public:
    explicit Adapter(ShardFoldSink &S) : S(S) {}
    void onRecord(const ObjectRecord &R) override { S.onShardRecord(0, R); }

  private:
    ShardFoldSink &S;
  } A(Sink);
  if (!replayProfileTo(Path, P, Config, A, Shell, Err))
    return false;
  SiteMapOut.resize(Shell.Sites.size());
  for (std::size_t I = 0; I < SiteMapOut.size(); ++I)
    SiteMapOut[I] = static_cast<SiteId>(I);
  return true;
}
