//===- profiler/ParallelReplay.cpp ----------------------------------------===//

#include "profiler/ParallelReplay.h"


#include <thread>
#include <utility>

using namespace jdrag;
using namespace jdrag::profiler;
using namespace jdrag::vm;

namespace {

/// What one shard saw of a *foreign* object -- one it did not allocate
/// itself: its uses up to its end, and whether it ended. A snapped use
/// before the shard's first DeepGCEnd takes the entry boundary (the
/// previous shard's last DeepGCEnd), which only the merge knows, so it
/// is kept as a flag and resolved there.
struct ForeignUses {
  std::uint32_t UseCount = 0;
  SiteId LastUseSite = InvalidSite;
  bool HasFirst = false;     ///< a use outside the object's own init
  bool FirstAtEntry = false; ///< that first use snapped to the entry
  bool UseAtEntry = false;   ///< some use snapped to the entry
  bool Ended = false;        ///< the shard saw its Collect/Survivor
  ByteTime FirstTime = 0;    ///< the first use's time, unless FirstAtEntry
  ByteTime MaxTime = 0;      ///< max use time of the uses not at the entry
};

/// A foreign object's Collect/Survivor.
struct ForeignEnd {
  ObjectId Id = 0;
  ByteTime Time = 0;
  bool Survived = false;
};

/// Everything one worker produces from its chunk range.
struct ShardResult {
  explicit ShardResult(const ProfilerConfig &Config) : Trailers(Config) {}

  /// Trailers of the objects this shard allocated; after the decode,
  /// only those still live.
  TrailerTable Trailers;
  ObjectTable<ForeignUses> Foreign;
  std::vector<ForeignEnd> Ends; ///< in stream order
  std::vector<GCSample> Samples;
  /// DefineSite records in arrival order (stream id + frames); interned
  /// into the merged SiteTable in shard order, reproducing stream order.
  std::vector<std::pair<SiteId, std::vector<SiteFrame>>> Sites;
  /// The smallest AllocTime before the first local DeepGCEnd. The shard
  /// snapped those objects' early uses to 0 rather than to the entry
  /// boundary; both give max(boundary, AllocTime) == AllocTime when the
  /// boundary is no later than this.
  ByteTime MinEntryAlloc = ~ByteTime(0);
  /// Range of the ids allocated here (empty when Min > Max).
  ObjectId MinAllocId = ~ObjectId(0);
  ObjectId MaxAllocId = 0;
  ByteTime ExitInterval = 0; ///< last local DeepGCEnd time
  ByteTime TerminateTime = 0;
  bool HasExit = false;
  bool SawTerminate = false;
  bool Failed = false;
};

/// The map side: runs the trailer rules (TrailerTable) over one shard.
/// An object the shard allocates is finished here exactly as
/// DragProfiler finishes it, its record going to the fold; its trailer
/// keeps stream site ids. Uses and ends of foreign objects become
/// ForeignUses for the merge. Final, so the shard's record loop is
/// instantiated for it (RecordTarget).
class ShardConsumer final : public EventConsumer {
public:
  ShardConsumer(const ir::Program &P, ShardResult &R, bool Snap,
                unsigned Index, ShardFoldSink &Fold)
      : P(P), R(R), Snap(Snap), Index(Index), Fold(Fold) {}

  const ir::Program *siteProgram() const override { return &P; }

  void onSite(SiteId Id, std::span<const SiteFrame> Frames) override {
    R.Sites.emplace_back(Id,
                         std::vector<SiteFrame>(Frames.begin(), Frames.end()));
  }

  [[gnu::always_inline]] void onEvent(const EventRecord &E) override {
    switch (E.kind()) {
    case EventKind::Alloc:
      R.Trailers.alloc(E, E.Site);
      if (!R.HasExit)
        R.MinEntryAlloc = std::min(R.MinEntryAlloc, E.Time);
      R.MinAllocId = std::min(R.MinAllocId, E.Id);
      R.MaxAllocId = std::max(R.MaxAllocId, E.Id);
      break;
    case EventKind::Use:
      if (!R.Trailers.use(E, E.Site))
        foreignUse(E);
      break;
    case EventKind::GCEnd:
      R.Samples.push_back({E.Time, E.Arg0, E.Arg1});
      break;
    case EventKind::DeepGCEnd:
      R.Trailers.deepGC(E.Time);
      R.HasExit = true;
      R.ExitInterval = E.Time;
      break;
    case EventKind::Collect:
    case EventKind::Survivor: {
      bool Survived = E.kind() == EventKind::Survivor;
      if (!R.Trailers.end(E.Id, E.Time, Survived,
                          [this](const ObjectRecord &Rec) {
                            Fold.onShardRecord(Index, Rec);
                          }))
        foreignEnd(E.Id, E.Time, Survived);
      break;
    }
    case EventKind::Terminate:
      R.SawTerminate = true;
      R.TerminateTime = E.Time;
      break;
    case EventKind::DefineSite:
      break; // delivered via onSite
    }
  }

private:
  void foreignUse(const EventRecord &E) {
    ForeignUses &F = R.Foreign.findOrInsert(E.Id);
    if (F.Ended)
      return; // the trailer is gone, as in sequential replay
    bool AtEntry = Snap && !R.HasExit;
    ByteTime Time = Snap ? R.ExitInterval : E.Time;
    if (!(E.Flags & 1) && !F.HasFirst) {
      F.HasFirst = true;
      F.FirstAtEntry = AtEntry;
      F.FirstTime = Time;
    }
    if (AtEntry)
      F.UseAtEntry = true;
    else
      F.MaxTime = std::max(F.MaxTime, Time);
    F.LastUseSite = E.Site;
    ++F.UseCount;
  }

  void foreignEnd(ObjectId Id, ByteTime Time, bool Survived) {
    ForeignUses &F = R.Foreign.findOrInsert(Id);
    if (F.Ended)
      return;
    F.Ended = true;
    R.Ends.push_back({Id, Time, Survived});
  }

  const ir::Program &P;
  ShardResult &R;
  bool Snap;
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
/// header, a legacy (v2-v6) stream, a damaged footer, a stream the index
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
  Shards.clear();
  Shards.reserve(Count);
  for (std::size_t K = 0; K < Count; ++K)
    Shards.emplace_back(Config);
  std::vector<std::thread> Threads;
  Threads.reserve(Count);
  for (std::size_t K = 0; K < Count; ++K)
    Threads.emplace_back([&, K] {
      ShardConsumer C(P, Shards[K], Config.SnapUseTimes,
                      static_cast<unsigned>(K), Fold);
      Shards[K].Failed = !runShard(S, Cut[K], Cut[K + 1], C);
    });
  for (std::thread &T : Threads)
    T.join();
  for (const ShardResult &Sh : Shards)
    if (Sh.Failed)
      return false;
  return true;
}

/// Applies one shard's uses of a foreign object to its trailer, with
/// uses at the entry boundary taking \p Entry: TrailerTable::use's
/// arithmetic, batched. A snapped use time is max(boundary, AllocTime),
/// and LastUseTime never drops below AllocTime, so the last-use max can
/// take the boundary itself.
void applyForeign(Trailer &T, const ForeignUses &F, ByteTime Entry) {
  if (F.HasFirst && !T.UsedOutsideInit) {
    T.FirstUseTime =
        std::max(F.FirstAtEntry ? Entry : F.FirstTime, T.AllocTime);
    T.UsedOutsideInit = true;
  }
  T.LastUseTime = std::max({T.LastUseTime, F.MaxTime,
                            F.UseAtEntry ? Entry : ByteTime(0)});
  if (F.UseCount)
    T.LastUseSite = F.LastUseSite;
  T.UseCount += F.UseCount;
}

/// The reduce side, the boundary merge. It walks the shards in order
/// and carries the trailers still live at each shard's end into the
/// next; a shard's uses of carried objects update them, and its ends
/// finish them through TrailerTable::end, the records going to
/// Fold.onMergedRecord with stream site ids, like the shard records.
/// \p Shell receives the record-free log and \p SiteMap the stream-id
/// -> Shell.Sites-id map.
///
/// Returns false, leaving \p Shell alone, when a shard's own trailers may
/// differ from the sequential ones: an object allocated before the
/// shard's first DeepGCEnd at a time below the shard's entry boundary
/// (a clock that ran backwards across shards; its early uses snapped to
/// 0, not to the boundary), or an id allocated again while an earlier
/// shard's object with that id may be live. The VM writes neither; the
/// caller then replays sequentially.
bool mergeShards(std::vector<ShardResult> &Shards,
                 const ProfilerConfig &Config, ShardFoldSink &Fold,
                 ProfileLog &Shell, std::vector<SiteId> &SiteMap) {
  // Each shard's entry boundary is the previous shard's last deep-GC
  // time (inherited across shards that saw none); shard 0 enters at 0,
  // like the sequential profiler's initial interval.
  std::vector<ByteTime> Entry(Shards.size(), 0);
  bool Allocated = false;
  ObjectId MaxAllocated = 0;
  for (std::size_t K = 0; K < Shards.size(); ++K) {
    const ShardResult &Sh = Shards[K];
    if (K > 0)
      Entry[K] =
          Shards[K - 1].HasExit ? Shards[K - 1].ExitInterval : Entry[K - 1];
    if (Config.SnapUseTimes && Sh.MinEntryAlloc < Entry[K])
      return false;
    if (Sh.MinAllocId > Sh.MaxAllocId)
      continue; // allocated nothing
    if (Allocated && Sh.MinAllocId <= MaxAllocated)
      return false;
    Allocated = true;
    MaxAllocated = std::max(MaxAllocated, Sh.MaxAllocId);
  }

  ProfileLog Log;
  Log.GCSamples.reserve(64);

  // Sites: interning in shard order reproduces stream arrival order,
  // hence the sequential profiler's local ids.
  SiteMap.clear();
  SiteMap.reserve(256);
  for (ShardResult &Sh : Shards)
    for (auto &[StreamId, Frames] : Sh.Sites) {
      SiteId Local = Log.Sites.internFrames(std::move(Frames));
      if (StreamId >= SiteMap.size())
        SiteMap.resize(StreamId + 1, InvalidSite);
      SiteMap[StreamId] = Local;
    }

  TrailerTable Carried(Config);
  auto Deliver = [&](const ObjectRecord &R) { Fold.onMergedRecord(R); };
  for (std::size_t K = 0; K < Shards.size(); ++K) {
    ShardResult &Sh = Shards[K];
    // Per-id independent, so the visiting order changes nothing.
    Sh.Foreign.forEachLive([&](ObjectId Id, const ForeignUses &F) {
      if (Trailer *T = Carried.live().find(Id))
        applyForeign(*T, F, Entry[K]);
    });
    for (const ForeignEnd &End : Sh.Ends)
      Carried.end(End.Id, End.Time, End.Survived, Deliver);
    Sh.Trailers.live().forEachLive([&](ObjectId Id, const Trailer &T) {
      Carried.live().insert(Id) = T;
    });
    Log.GCSamples.insert(Log.GCSamples.end(), Sh.Samples.begin(),
                         Sh.Samples.end());
    if (Sh.SawTerminate)
      Log.EndTime = Sh.TerminateTime;
  }
  Shell = std::move(Log);
  return true;
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
        if (!mergeShards(Shards, Config, Sink, Shell, SiteMapOut))
          break;
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
