//===- profiler/ParallelReplay.cpp ----------------------------------------===//

#include "profiler/ParallelReplay.h"

#include "support/Crc32c.h"

#include <cstring>
#include <fstream>
#include <thread>
#include <utility>

using namespace jdrag;
using namespace jdrag::profiler;
using namespace jdrag::vm;

namespace {

bool readAll(const std::string &Path, std::vector<std::byte> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  In.seekg(0, std::ios::end);
  std::streamoff End = In.tellg();
  if (End < 0)
    return false;
  In.seekg(0, std::ios::beg);
  Out.resize(static_cast<std::size_t>(End));
  if (End > 0)
    In.read(reinterpret_cast<char *>(Out.data()), End);
  return static_cast<bool>(In);
}

/// One shard's knowledge about one object. Times that depend on the
/// deep-GC interval boundary are split into *known* values (the shard
/// saw the boundary locally) and *symbolic prefix* markers (the use
/// happened before the shard's first DeepGCEnd, so its snapped time is
/// the previous shard's exit boundary -- resolved at merge time).
struct PartialTrailer {
  enum class First : std::uint8_t { None, Prefix, Known };

  ir::ClassId Class;
  ir::ArrayKind AKind = ir::ArrayKind::Int;
  bool IsArray = false;
  bool HasAlloc = false;
  bool PrefixUse = false;   ///< some use snapped to the entry boundary
  bool HasKnownMax = false; ///< KnownMax holds a resolved use time
  First FirstNonInit = First::None;
  std::uint32_t Bytes = 0;
  std::uint32_t UseCount = 0;
  ByteTime AllocTime = 0;
  ByteTime FirstNonInitTime = 0; ///< valid when FirstNonInit == Known
  ByteTime KnownMax = 0;         ///< max resolved use time in this shard
  SiteId AllocSiteStream = InvalidSite; ///< stream id; mapped at merge
  SiteId LastUseSiteStream = InvalidSite;
};

/// The fold of all shards' partials for one object, with interval
/// symbolics already resolved (fields are raw stream-clock times; the
/// final max against AllocTime happens at emission).
struct MergedTrailer {
  ir::ClassId Class;
  ir::ArrayKind AKind = ir::ArrayKind::Int;
  bool IsArray = false;
  bool HasAlloc = false;
  bool Ended = false; ///< an end event already consumed this object
  bool HasFirstNonInit = false;
  bool HasUseMax = false;
  std::uint32_t Bytes = 0;
  std::uint32_t UseCount = 0;
  ByteTime AllocTime = 0;
  ByteTime FirstNonInitRaw = 0;
  ByteTime UseMaxRaw = 0;
  SiteId AllocSiteStream = InvalidSite;
  SiteId LastUseSiteStream = InvalidSite;
};

struct EndEvent {
  ObjectId Id = 0;
  ByteTime Time = 0;
  bool Survived = false;
};

/// Everything one worker produces from its chunk range.
struct ShardResult {
  /// Partials by object id. In fold mode an in-shard object erases its
  /// partial the moment it dies, so the table tracks the shard's live
  /// objects, not every object it ever decoded.
  ObjectTable<PartialTrailer> Table;
  std::vector<EndEvent> Ends; ///< Collect/Survivor, in stream order
  std::vector<GCSample> Samples;
  /// DefineSite records in arrival order (stream id + frames); interned
  /// into the merged SiteTable in shard order, reproducing stream order.
  std::vector<std::pair<SiteId, std::vector<SiteFrame>>> Sites;
  ByteTime ExitInterval = 0; ///< last local DeepGCEnd time
  ByteTime TerminateTime = 0;
  bool HasExit = false;
  bool SawTerminate = false;
  bool Failed = false;
  std::string Error;
};

/// EventConsumer that accumulates shard partials instead of emitting
/// records -- the "map" side of the map-reduce. With a ShardFoldSink
/// attached, an object whose alloc *and* end both fall in this shard is
/// completed locally: the finished record goes straight to the fold (on
/// this shard's decode thread) and its partial is erased, so neither the
/// partial nor the end event survives to the merge. Only objects that
/// straddle a shard boundary keep the materialize-path bookkeeping.
class ShardConsumer : public EventConsumer {
public:
  ShardConsumer(ShardResult &R, bool Snap, bool IntervalKnown,
                unsigned ShardIdx = 0, ShardFoldSink *Fold = nullptr,
                const ClassExclusion *Excluded = nullptr)
      : R(R), Snap(Snap), IntervalKnown(IntervalKnown), ShardIdx(ShardIdx),
        Fold(Fold), Excluded(Excluded) {}

  void onSite(SiteId Id, std::span<const SiteFrame> Frames) override {
    R.Sites.emplace_back(Id,
                         std::vector<SiteFrame>(Frames.begin(), Frames.end()));
  }

  void onEvent(const EventRecord &E) override {
    switch (E.kind()) {
    case EventKind::Alloc: {
      PartialTrailer &T = R.Table.insert(E.Id);
      T.HasAlloc = true;
      T.Class = ir::ClassId(static_cast<std::uint32_t>(E.Arg1));
      T.AKind = static_cast<ir::ArrayKind>(E.Sub);
      T.IsArray = E.Flags & 1;
      T.Bytes = static_cast<std::uint32_t>(E.Arg0);
      T.AllocTime = E.Time;
      T.AllocSiteStream = E.Site;
      break;
    }
    case EventKind::Use: {
      // The alloc may live in an earlier shard, so a use with no local
      // partial still creates one; if no shard ever saw the alloc the
      // merged trailer stays HasAlloc = false and is never emitted
      // (sequential semantics for VM-internal ids).
      PartialTrailer &T = R.Table.findOrInsert(E.Id);
      bool DuringOwnInit = E.Flags & 1;
      bool Known = !Snap || IntervalKnown;
      ByteTime Raw = Snap ? Interval : E.Time;
      if (!DuringOwnInit && T.FirstNonInit == PartialTrailer::First::None) {
        T.FirstNonInit = Known ? PartialTrailer::First::Known
                               : PartialTrailer::First::Prefix;
        T.FirstNonInitTime = Known ? Raw : 0;
      }
      if (Known) {
        T.HasKnownMax = true;
        T.KnownMax = std::max(T.KnownMax, Raw);
      } else {
        T.PrefixUse = true;
      }
      T.LastUseSiteStream = E.Site;
      ++T.UseCount;
      break;
    }
    case EventKind::GCEnd:
      R.Samples.push_back({E.Time, E.Arg0, E.Arg1});
      break;
    case EventKind::DeepGCEnd:
      IntervalKnown = true;
      Interval = E.Time;
      R.HasExit = true;
      R.ExitInterval = E.Time;
      break;
    case EventKind::Collect:
    case EventKind::Survivor: {
      if (Fold) {
        PartialTrailer *T = R.Table.find(E.Id);
        if (T && T->HasAlloc) {
          emitLocal(E.Id, *T, E.Time,
                    /*Survived=*/E.kind() == EventKind::Survivor);
          R.Table.erase(E.Id);
          break;
        }
        // A partial without the alloc (or no partial at all) means the
        // object straddles a shard boundary: keep the bookkeeping and
        // let the merge emit it -- or drop it, for VM-internal ids no
        // shard ever saw an alloc for, matching sequential replay.
      }
      R.Ends.push_back({E.Id, E.Time, E.kind() == EventKind::Survivor});
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
  /// Builds the finished record for an object whose whole lifetime fell
  /// inside this shard, with the exact field formulas of mergeShards'
  /// emission loop. The formulas collapse because the alloc is local:
  /// any symbolic (Prefix) use resolves to the shard's entry boundary,
  /// and on the monotonic byte clock that boundary precedes everything
  /// in this shard, so max(boundary, AllocTime) == AllocTime -- exactly
  /// the value the Known-less branches below produce.
  void emitLocal(ObjectId Id, const PartialTrailer &T, ByteTime Now,
                 bool Survived) {
    if (!T.IsArray && Excluded->excludes(T.Class))
      return;
    ObjectRecord Rec;
    Rec.Id = Id;
    Rec.Class = T.Class;
    Rec.AKind = T.AKind;
    Rec.IsArray = T.IsArray;
    Rec.Bytes = T.Bytes;
    Rec.AllocTime = T.AllocTime;
    Rec.FirstUseTime = T.FirstNonInit == PartialTrailer::First::Known
                           ? std::max(T.FirstNonInitTime, T.AllocTime)
                           : T.AllocTime;
    Rec.LastUseTime =
        T.HasKnownMax ? std::max(T.KnownMax, T.AllocTime) : T.AllocTime;
    Rec.CollectTime = Now;
    // Stream site ids, like every fold-mode record; the driver hands the
    // caller a stream-id -> log-id map to remap the folds once.
    Rec.AllocSite = T.AllocSiteStream;
    Rec.LastUseSite = T.LastUseSiteStream;
    Rec.UseCount = T.UseCount;
    Rec.UsedOutsideInit = T.FirstNonInit != PartialTrailer::First::None;
    Rec.SurvivedToEnd = Survived;
    Fold->onShardRecord(ShardIdx, Rec);
  }

  ShardResult &R;
  bool Snap;
  bool IntervalKnown; ///< a local DeepGCEnd has fixed the boundary
  ByteTime Interval = 0;
  unsigned ShardIdx;
  ShardFoldSink *Fold;
  const ClassExclusion *Excluded;
};

bool shardFail(ShardResult &R, std::string Msg) {
  R.Failed = true;
  R.Error = std::move(Msg);
  return false;
}

/// Re-verifies one chunk against its index entry: header fields, CRC,
/// and (for footer-sourced indexes) the footer's own claims. The index
/// construction already bounds-checked every offset, so the reads here
/// cannot run off the stream. On success \p Body is the chunk's record
/// payload -- decompressed into \p Inflate for a flagged v6+ chunk, the
/// raw wire bytes otherwise (the CRC always covers the uncompressed
/// payload).
bool validateChunk(std::span<const std::byte> Framed, const ChunkIndexEntry &En,
                   std::size_t GlobalIdx, bool FromFooter, WireFormat F,
                   std::vector<std::uint8_t> &Inflate,
                   std::span<const std::byte> &Body, ShardResult &R) {
  ChunkHeader H;
  std::memcpy(&H, Framed.data() + En.Offset, sizeof(H));
  if (H.Magic != ChunkMagic || H.Seq != En.Seq ||
      H.PayloadBytes != En.PayloadBytes ||
      En.Seq != static_cast<std::uint32_t>(GlobalIdx))
    return shardFail(R, "chunk index disagrees with the header of chunk " +
                            std::to_string(GlobalIdx));
  bool Flags = chunkFlagsHonoured(F);
  std::uint32_t WireLen =
      Flags ? chunkWireBytes(H.PayloadBytes) : H.PayloadBytes;
  const std::byte *Payload = Framed.data() + En.Offset + sizeof(ChunkHeader);
  Body = std::span<const std::byte>(Payload, WireLen);
  if (Flags && chunkCompressed(H.PayloadBytes) &&
      !chunkPayloadBytes(H, Payload, Inflate, Body))
    return shardFail(R, "corrupt compressed payload in chunk " +
                            std::to_string(GlobalIdx));
  std::uint32_t Crc = support::crc32c(Body.data(), Body.size());
  if (Crc != H.Crc || (FromFooter && En.Crc != H.Crc))
    return shardFail(R, "CRC mismatch in chunk " + std::to_string(GlobalIdx));
  return true;
}

/// Decodes chunks [B, E) of the stream into \p R. Every chunk is
/// self-contained, so each one decodes on its own.
void runShard(std::span<const std::byte> Framed, WireFormat F,
              const ChunkIndex &Idx, std::size_t B, std::size_t E, bool Snap,
              ShardResult &R, unsigned ShardIdx = 0,
              ShardFoldSink *Fold = nullptr,
              const ClassExclusion *Excluded = nullptr) {
  ShardConsumer C(R, Snap, /*IntervalKnown=*/B == 0, ShardIdx, Fold, Excluded);
  StreamDecoder Dec(C, F);
  std::vector<std::uint8_t> Inflate; // per-shard decompression scratch
  std::span<const std::byte> Body;
  for (std::size_t I = B; I < E; ++I) {
    const ChunkIndexEntry &En = Idx.Entries[I];
    if (!validateChunk(Framed, En, I, Idx.FromFooter, F, Inflate, Body, R))
      return;
    std::uint64_t Before = Dec.eventsDecoded();
    if (!Dec.decodeChunk(Body.data(), Body.size())) {
      shardFail(R, Dec.error());
      return;
    }
    if (Dec.eventsDecoded() - Before != En.RecordCount) {
      shardFail(R, "chunk index record count lies for chunk " +
                       std::to_string(I));
      return;
    }
  }
}

/// Partitions chunks into at most \p Jobs contiguous ranges balanced by
/// payload bytes and decodes them on one thread each. Returns false if
/// any shard failed (first error in \p Err).
bool runSharded(std::span<const std::byte> Framed, WireFormat F,
                const ChunkIndex &Idx, unsigned Jobs, bool Snap,
                std::vector<ShardResult> &Shards, std::string &Err,
                ShardFoldSink *Fold = nullptr,
                const ClassExclusion *Excluded = nullptr) {
  std::size_t N = Idx.Entries.size();
  std::size_t S = std::min<std::size_t>(Jobs, N);
  // Balance by on-wire bytes (masking the v6 compressed flag, a no-op
  // for pre-v6 entries where payloads stay under 2^31).
  std::uint64_t Total = 0;
  for (const ChunkIndexEntry &En : Idx.Entries)
    Total += chunkWireBytes(En.PayloadBytes);
  std::vector<std::size_t> Cut(S + 1, 0);
  Cut[S] = N;
  std::size_t I = 0;
  std::uint64_t Acc = 0;
  for (std::size_t K = 1; K < S; ++K) {
    std::uint64_t Target = Total * K / S;
    while (I < N && Acc < Target)
      Acc += chunkWireBytes(Idx.Entries[I++].PayloadBytes);
    Cut[K] = I;
  }

  Shards = std::vector<ShardResult>(S);
  std::vector<std::thread> Threads;
  Threads.reserve(S);
  for (std::size_t K = 0; K < S; ++K)
    Threads.emplace_back([&, K] {
      runShard(Framed, F, Idx, Cut[K], Cut[K + 1], Snap, Shards[K],
               static_cast<unsigned>(K), Fold, Excluded);
    });
  for (std::thread &T : Threads)
    T.join();
  for (const ShardResult &Sh : Shards)
    if (Sh.Failed) {
      Err = Sh.Error;
      return false;
    }
  return true;
}

void foldPartial(MergedTrailer &M, const PartialTrailer &P,
                 ByteTime EntryInterval) {
  M.UseCount += P.UseCount;
  if (P.UseCount)
    M.LastUseSiteStream = P.LastUseSiteStream;
  if (P.FirstNonInit != PartialTrailer::First::None && !M.HasFirstNonInit) {
    M.HasFirstNonInit = true;
    M.FirstNonInitRaw = P.FirstNonInit == PartialTrailer::First::Prefix
                            ? EntryInterval
                            : P.FirstNonInitTime;
  }
  if (P.PrefixUse) {
    M.HasUseMax = true;
    M.UseMaxRaw = std::max(M.UseMaxRaw, EntryInterval);
  }
  if (P.HasKnownMax) {
    M.HasUseMax = true;
    M.UseMaxRaw = std::max(M.UseMaxRaw, P.KnownMax);
  }
  if (P.HasAlloc && !M.HasAlloc) {
    M.HasAlloc = true;
    M.Class = P.Class;
    M.AKind = P.AKind;
    M.IsArray = P.IsArray;
    M.Bytes = P.Bytes;
    M.AllocTime = P.AllocTime;
    M.AllocSiteStream = P.AllocSiteStream;
  }
}

/// The "reduce" side: folds shard partials in shard order and emits
/// object records in the stream order of their end events, reproducing
/// DragProfiler's output exactly. With \p Fold set, boundary-crossing
/// records go to Fold->onMergedRecord (carrying *stream* site ids, like
/// the shard-local records) instead of Out.Records, and \p SiteMapOut
/// receives the stream-id -> Out.Sites-id map the caller remaps with.
void mergeShards(std::vector<ShardResult> &Shards,
                 const ProfilerConfig &Config, ProfileLog &Out,
                 ShardFoldSink *Fold = nullptr,
                 std::vector<SiteId> *SiteMapOut = nullptr) {
  ProfileLog Log;
  Log.Records.reserve(1024);
  Log.GCSamples.reserve(64);

  // Sites: interning in shard order reproduces stream arrival order,
  // hence the sequential profiler's local ids.
  std::vector<SiteId> SiteMap;
  SiteMap.reserve(256);
  for (ShardResult &Sh : Shards)
    for (auto &[StreamId, Frames] : Sh.Sites) {
      SiteId Local = Log.Sites.internFrames(std::move(Frames));
      if (StreamId >= SiteMap.size())
        SiteMap.resize(StreamId + 1, InvalidSite);
      SiteMap[StreamId] = Local;
    }
  auto MapSite = [&](SiteId StreamId) {
    return StreamId < SiteMap.size() ? SiteMap[StreamId] : InvalidSite;
  };
  if (SiteMapOut)
    *SiteMapOut = SiteMap;

  // Each shard's entry boundary is the previous shard's last deep-GC
  // time (inherited across shards that saw none); shard 0 enters at 0,
  // like the sequential profiler's initial IntervalStart.
  std::vector<ByteTime> Entry(Shards.size(), 0);
  for (std::size_t K = 1; K < Shards.size(); ++K)
    Entry[K] =
        Shards[K - 1].HasExit ? Shards[K - 1].ExitInterval : Entry[K - 1];

  // Merge-side folding is per-id independent, so the tables' visiting
  // order changes no observable result -- each id appears at most once
  // per shard.
  ObjectTable<MergedTrailer> Merged;
  for (std::size_t K = 0; K < Shards.size(); ++K)
    Shards[K].Table.forEachLive([&](ObjectId Id, const PartialTrailer &Pt) {
      foldPartial(Merged.findOrInsert(Id), Pt, Entry[K]);
    });

  ClassExclusion Excluded(Config.ExcludedClasses);

  for (ShardResult &Sh : Shards) {
    for (const EndEvent &End : Sh.Ends) {
      MergedTrailer *T = Merged.find(End.Id);
      if (!T || !T->HasAlloc || T->Ended)
        continue; // VM-internal id, or already collected (first wins)
      T->Ended = true;
      if (!T->IsArray && Excluded.excludes(T->Class))
        continue;
      ObjectRecord Rec;
      Rec.Id = End.Id;
      Rec.Class = T->Class;
      Rec.AKind = T->AKind;
      Rec.IsArray = T->IsArray;
      Rec.Bytes = T->Bytes;
      Rec.AllocTime = T->AllocTime;
      Rec.FirstUseTime = T->HasFirstNonInit
                             ? std::max(T->FirstNonInitRaw, T->AllocTime)
                             : T->AllocTime;
      Rec.LastUseTime =
          T->HasUseMax ? std::max(T->UseMaxRaw, T->AllocTime) : T->AllocTime;
      Rec.CollectTime = End.Time;
      Rec.AllocSite = Fold ? T->AllocSiteStream : MapSite(T->AllocSiteStream);
      Rec.LastUseSite =
          Fold ? T->LastUseSiteStream : MapSite(T->LastUseSiteStream);
      Rec.UseCount = T->UseCount;
      Rec.UsedOutsideInit = T->HasFirstNonInit;
      Rec.SurvivedToEnd = End.Survived;
      if (Fold)
        Fold->onMergedRecord(Rec);
      else
        Log.Records.push_back(Rec);
    }
    Log.GCSamples.insert(Log.GCSamples.end(), Sh.Samples.begin(),
                         Sh.Samples.end());
    if (Sh.SawTerminate)
      Log.EndTime = Sh.TerminateTime;
  }
  Out = std::move(Log);
}

/// Everything the sharded entry points need from the file before they
/// can split it: the raw bytes, parsed header fields, the framed chunk
/// region and a chunk index with at least two entries.
struct ShardedStream {
  std::vector<std::byte> Bytes;
  WireFormat F = DefaultWireFormat;
  SamplingParams Sampling;
  std::span<const std::byte> Framed;
  ChunkIndex Idx;
};

/// Shared prologue of replayProfileParallel and the fold variant.
/// Returns false when anything prevents sharding -- unreadable file, bad
/// header, a v2/v3 stream (whose records straddle chunks), a damaged
/// footer, a stream the index rebuild rejects, or too few chunks to
/// split -- so the caller runs the sequential path, which produces the
/// canonical result or error message for that input.
bool loadForSharding(const std::string &Path, ShardedStream &S) {
  StreamHeaderInfo Hdr;
  // A bad header is the sequential path's error to report.
  if (!readAll(Path, S.Bytes) || !parseStreamHeader(S.Bytes, Hdr) ||
      !chunkSelfContained(Hdr.Format))
    return false;
  S.F = Hdr.Format;
  S.Sampling = Hdr.Sampling;
  std::size_t HeaderBytes = streamHeaderBytes(S.F);
  S.Framed = std::span<const std::byte>(S.Bytes.data() + HeaderBytes,
                                        S.Bytes.size() - HeaderBytes);
  if (S.Framed.empty())
    return false; // header-only recording
  if (footerBlockSize(S.Framed) != 0) {
    // A structurally present but unparsable footer is damage; let the
    // strict sequential path report it.
    if (!readChunkIndexFooter(S.Framed, S.Idx))
      return false;
  } else if (!rebuildChunkIndex(S.Framed, S.F, S.Idx)) {
    return false;
  }
  return S.Idx.Entries.size() >= 2;
}

} // namespace

unsigned jdrag::profiler::defaultReplayJobs() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

bool jdrag::profiler::replayProfileParallel(const std::string &Path,
                                            const ir::Program &P,
                                            ProfilerConfig Config,
                                            unsigned Jobs, ProfileLog &Out,
                                            std::string *Err) {
  if (Jobs == 0)
    Jobs = defaultReplayJobs();
  auto Sequential = [&] {
    return replayProfile(Path, P, std::move(Config), Out, Err);
  };
  if (Jobs <= 1)
    return Sequential();

  ShardedStream S;
  if (!loadForSharding(Path, S))
    return Sequential();

  bool Snap = Config.SnapUseTimes;
  for (int Attempt = 0; Attempt < 2; ++Attempt) {
    std::vector<ShardResult> Shards;
    std::string ShardErr;
    if (runSharded(S.Framed, S.F, S.Idx, Jobs, Snap, Shards, ShardErr)) {
      mergeShards(Shards, Config, Out);
      Out.SampleRate = S.Sampling.SampleBytes;
      Out.SampleSeed = S.Sampling.enabled() ? S.Sampling.SampleSeed : 0;
      Out.Compressed = S.Idx.compressed();
      return true;
    }
    // A footer is a producer claim; when reality disagrees, distrust it
    // once, rebuild the index from the bytes and re-shard. A failure
    // against a *rebuilt* index means real damage -- sequential replay
    // owns the error message for that.
    if (!S.Idx.FromFooter)
      break;
    ChunkIndex Rebuilt;
    if (!rebuildChunkIndex(S.Framed, S.F, Rebuilt))
      break;
    S.Idx = std::move(Rebuilt);
  }
  return Sequential();
}

bool jdrag::profiler::replayProfileParallelFold(
    const std::string &Path, const ir::Program &P, ProfilerConfig Config,
    unsigned Jobs, ShardFoldSink &Sink, ProfileLog &Shell,
    std::vector<SiteId> &SiteMapOut, std::string *Err) {
  if (Jobs == 0)
    Jobs = defaultReplayJobs();
  auto Sequential = [&] {
    // One logical shard, fed by the sequential streaming profiler. Its
    // records already carry log-local site ids, so the map the caller
    // remaps with is the identity over Shell.Sites.
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
  };
  if (Jobs <= 1)
    return Sequential();

  ShardedStream S;
  if (!loadForSharding(Path, S))
    return Sequential();

  ClassExclusion Excluded(Config.ExcludedClasses);
  bool Snap = Config.SnapUseTimes;
  for (int Attempt = 0; Attempt < 2; ++Attempt) {
    // A retry decodes the stream again, so the sink must drop whatever
    // the failed attempt already folded.
    Sink.beginAttempt(static_cast<unsigned>(
        std::min<std::size_t>(Jobs, S.Idx.Entries.size())));
    std::vector<ShardResult> Shards;
    std::string ShardErr;
    if (runSharded(S.Framed, S.F, S.Idx, Jobs, Snap, Shards, ShardErr, &Sink,
                   &Excluded)) {
      mergeShards(Shards, Config, Shell, &Sink, &SiteMapOut);
      Shell.SampleRate = S.Sampling.SampleBytes;
      Shell.SampleSeed = S.Sampling.enabled() ? S.Sampling.SampleSeed : 0;
      Shell.Compressed = S.Idx.compressed();
      return true;
    }
    if (!S.Idx.FromFooter)
      break;
    ChunkIndex Rebuilt;
    if (!rebuildChunkIndex(S.Framed, S.F, Rebuilt))
      break;
    S.Idx = std::move(Rebuilt);
  }
  return Sequential();
}
