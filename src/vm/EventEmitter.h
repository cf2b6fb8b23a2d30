//===- vm/EventEmitter.h - VM-side event production -------------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// EventEmitter is the thin, non-virtual facade the interpreter and heap
/// use to produce the binary instrumentation stream. It owns the hot-path
/// optimisation that motivates the pipeline: instead of capturing a call
/// chain on every allocation/use, the interpreter maintains a
/// *call-context trie* -- one node per distinct call path, computed
/// incrementally with a single hash lookup at frame push -- and an
/// event's nested site is the trie child of (context, method, pc). The chain is materialised, interned and emitted as a
/// DefineSite record only the first time a given site occurs; every later
/// occurrence costs one cached 4-byte SiteId.
///
/// Allocations and uses write no records: the interpreter keeps each
/// object's trailer on its HeapObject, and the object's Collect or
/// Survivor record carries it, finished (profiler/EventStream.h, v8).
/// The emitter keeps the deep-GC boundaries those trailers name by
/// epoch.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_VM_EVENTEMITTER_H
#define JDRAG_VM_EVENTEMITTER_H

#include "profiler/EventStream.h"
#include "profiler/Sampling.h"
#include "vm/Events.h"

#include <vector>

namespace jdrag::vm {

class HeapObject;

/// Produces the event stream for one VM run. Owned by VirtualMachine;
/// Interpreter and Heap hold non-owning pointers.
class EventEmitter {
public:
  struct Config {
    /// Nesting depth of interned sites (the paper's "level of nesting").
    std::uint32_t SiteDepth = 4;
    /// Buffer chunk size; 0 = EventBuffer::DefaultChunkBytes.
    std::size_t ChunkBytes = 0;
    /// Size-weighted allocation sampling (SampleBytes 0 = exact mode).
    profiler::SamplingParams Sampling;
  };

  /// The empty call context (base frames: main, finalizer activations).
  static constexpr std::uint32_t RootContext = 0;

  EventEmitter(profiler::EventSink &Sink, Config C);

  /// Returns the trie node for the call path "\p Parent then a call at
  /// \p Method/\p Pc". O(1) amortised; called once per frame push.
  std::uint32_t pushContext(std::uint32_t Parent, ir::MethodId Method,
                            std::uint32_t Pc, std::uint32_t Line);

  /// Interns (and on first encounter defines in-stream) the nested site
  /// for an event at \p Method/\p Pc under call context \p Ctx.
  profiler::SiteId siteFor(std::uint32_t Ctx, ir::MethodId Method,
                           std::uint32_t Pc, std::uint32_t Line);

  /// Runs the sampling policy over one allocation and stamps the
  /// decision on the object. Returns the decision; when false the
  /// caller may skip site interning and the trailer entirely (the
  /// unsampled fast path). With sampling off this always returns true.
  bool sampleAllocation(HeapObject &Obj);
  /// True when a byte-interval sampling policy is active.
  bool samplingEnabled() const { return Policy.enabled(); }

  /// Deep GCs finished so far: a use's epoch names the deep-GC boundary
  /// in force at it (0: none yet, the boundary is 0).
  std::uint32_t deepGCEpoch() const {
    return static_cast<std::uint32_t>(Boundaries.size());
  }

  void gcEnd(ByteTime Now, std::uint64_t ReachableBytes,
             std::uint64_t ReachableObjects);
  /// A deep GC finished at \p Now: later uses snap to it.
  void deepGCEnd(ByteTime Now);
  /// The traced object \p Obj is reclaimed, or survives to the end, at
  /// \p Now: writes its record with its finished trailer.
  void collect(const HeapObject &Obj, ByteTime Now);
  void survivor(const HeapObject &Obj, ByteTime Now);
  void terminate(ByteTime Now);

  /// Flushes buffered events to the sink.
  bool flush() { return Buf.flush(); }
  /// End-of-run flush: also appends the v4 chunk index footer so the
  /// recording is seekable (profiler/ParallelReplay.h).
  bool finishStream() { return Buf.finishStream(); }
  /// False once a sink write has failed (events are then dropped and
  /// accounted in health(); emission itself keeps going).
  bool ok() const { return Buf.ok(); }
  /// Delivery accounting for this run's stream (drops, retries, errno).
  profiler::StreamHealth health() const { return Buf.health(); }
  std::uint64_t eventsEmitted() const { return Buf.eventsWritten(); }
  std::uint32_t sitesDefined() const { return Sites.size(); }

private:
  /// One call-context trie node. Node 0 is the root (empty context); a
  /// node's chain is (Method, Pc, Line) then its parent's chain.
  struct Node {
    std::uint32_t Parent = 0;
    ir::MethodId Method;
    std::uint32_t Pc = 0;
    std::uint32_t Line = 0;
    /// Cached site id for events at exactly this node; InvalidSite until
    /// first materialised.
    profiler::SiteId Site = profiler::InvalidSite;
  };

  /// One slot of the open-addressed trie-children table: the key triple
  /// plus the child node index (EmptySlot when unoccupied). A flat
  /// power-of-two linear-probe table replaces the former
  /// std::unordered_map<ChildKey, ...>: the lookup that runs on every
  /// context push and inline-cache miss costs one mix, one probe and
  /// (almost always) one 16-byte compare, with no bucket-list chasing.
  struct ChildSlot {
    std::uint32_t Parent = 0;
    std::uint32_t Method = 0;
    std::uint32_t Pc = 0;
    std::uint32_t Node = EmptySlot;
  };
  static constexpr std::uint32_t EmptySlot = ~static_cast<std::uint32_t>(0);

  static std::uint64_t childHash(std::uint32_t Parent, std::uint32_t Method,
                                 std::uint32_t Pc) {
    std::uint64_t H = (static_cast<std::uint64_t>(Parent) << 32) ^
                      (static_cast<std::uint64_t>(Method) << 16) ^ Pc;
    // Fibonacci-style 64-bit mix; the table masks the high-entropy bits.
    H *= 0x9e3779b97f4a7c15ULL;
    H ^= H >> 29;
    return H;
  }

  std::uint32_t child(std::uint32_t Parent, ir::MethodId Method,
                      std::uint32_t Pc, std::uint32_t Line);
  void growChildren();
  void endRecord(profiler::EventKind Kind, const HeapObject &Obj,
                 ByteTime Now);
  ByteTime boundary(std::uint32_t Epoch) const {
    return Epoch ? Boundaries[Epoch - 1] : 0;
  }

  profiler::EventBuffer Buf;
  Config C;
  std::vector<Node> Nodes;
  std::vector<ChildSlot> Children; ///< open-addressed, power-of-two size
  std::size_t ChildCount = 0;
  /// Producer-side dedup: distinct trie nodes whose depth-trimmed chains
  /// coincide (e.g. truncated recursion) must share one SiteId, exactly
  /// as per-event interning used to guarantee.
  profiler::SiteTable Sites;
  std::vector<profiler::SiteFrame> FrameScratch;
  profiler::SamplePolicy Policy;
  /// The byte-clock time of every deep GC so far, in order.
  std::vector<ByteTime> Boundaries;
};

} // namespace jdrag::vm

#endif // JDRAG_VM_EVENTEMITTER_H
