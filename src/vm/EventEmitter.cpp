//===- vm/EventEmitter.cpp ------------------------------------------------===//

#include "vm/EventEmitter.h"

#include "vm/Heap.h"

using namespace jdrag;
using namespace jdrag::profiler;
using namespace jdrag::vm;

EventEmitter::EventEmitter(EventSink &Sink, Config C)
    : Buf(Sink, C.ChunkBytes), C(C),
      Policy(C.Sampling) {
  Nodes.push_back(Node{}); // node 0: the root (empty) context
  Children.resize(1024);   // power of two; see growChildren()
}

bool EventEmitter::sampleAllocation(HeapObject &Obj) {
  Obj.Sampled = Policy.sampleAllocation(Obj.AccountedBytes);
  return Obj.Sampled;
}

void EventEmitter::growChildren() {
  std::vector<ChildSlot> Old(Children.size() * 2);
  Old.swap(Children);
  std::size_t Mask = Children.size() - 1;
  for (const ChildSlot &S : Old) {
    if (S.Node == EmptySlot)
      continue;
    std::size_t I = childHash(S.Parent, S.Method, S.Pc) & Mask;
    while (Children[I].Node != EmptySlot)
      I = (I + 1) & Mask;
    Children[I] = S;
  }
}

std::uint32_t EventEmitter::child(std::uint32_t Parent, ir::MethodId Method,
                                  std::uint32_t Pc, std::uint32_t Line) {
  std::size_t Mask = Children.size() - 1;
  std::size_t I = childHash(Parent, Method.Index, Pc) & Mask;
  for (;; I = (I + 1) & Mask) {
    ChildSlot &S = Children[I];
    if (S.Node == EmptySlot)
      break;
    if (S.Parent == Parent && S.Method == Method.Index && S.Pc == Pc)
      return S.Node;
  }
  auto N = static_cast<std::uint32_t>(Nodes.size());
  Nodes.push_back(Node{Parent, Method, Pc, Line, InvalidSite});
  Children[I] = ChildSlot{Parent, Method.Index, Pc, N};
  // Grow at 3/4 load so probe sequences stay short.
  if (++ChildCount * 4 > Children.size() * 3)
    growChildren();
  return N;
}

std::uint32_t EventEmitter::pushContext(std::uint32_t Parent,
                                        ir::MethodId Method, std::uint32_t Pc,
                                        std::uint32_t Line) {
  return child(Parent, Method, Pc, Line);
}

SiteId EventEmitter::siteFor(std::uint32_t Ctx, ir::MethodId Method,
                             std::uint32_t Pc, std::uint32_t Line) {
  std::uint32_t N = child(Ctx, Method, Pc, Line);
  if (Nodes[N].Site != InvalidSite)
    return Nodes[N].Site;

  // First event at this node: materialise the innermost SiteDepth frames
  // by walking parents, intern, and define in-stream if the chain is new
  // (distinct nodes can trim to identical chains).
  FrameScratch.clear();
  for (std::uint32_t Cur = N;
       Cur != RootContext && FrameScratch.size() < C.SiteDepth;
       Cur = Nodes[Cur].Parent) {
    const Node &Nd = Nodes[Cur];
    FrameScratch.push_back({Nd.Method, Nd.Pc, Nd.Line});
  }
  std::uint32_t Before = Sites.size();
  SiteId S = Sites.internFrames(FrameScratch);
  if (Sites.size() != Before)
    Buf.writeSite(S, FrameScratch);
  Nodes[N].Site = S;
  return S;
}

void EventEmitter::gcEnd(ByteTime Now, std::uint64_t ReachableBytes,
                         std::uint64_t ReachableObjects) {
  EventRecord E;
  E.Kind = static_cast<std::uint8_t>(EventKind::GCEnd);
  E.Time = Now;
  E.Arg0 = ReachableBytes;
  E.Arg1 = ReachableObjects;
  Buf.writeEvent(E);
}

void EventEmitter::deepGCEnd(ByteTime Now) {
  Boundaries.push_back(Now);
  EventRecord E;
  E.Kind = static_cast<std::uint8_t>(EventKind::DeepGCEnd);
  E.Time = Now;
  Buf.writeEvent(E);
}

void EventEmitter::endRecord(EventKind Kind, const HeapObject &Obj,
                            ByteTime Now) {
  EventRecord E;
  E.Kind = static_cast<std::uint8_t>(Kind);
  E.Time = Now;
  E.Id = Obj.Id;
  E.Arg0 = Obj.AccountedBytes;
  E.Arg1 = Obj.Class.Index;
  E.Site = Obj.AllocSite;
  E.Sub = static_cast<std::uint8_t>(Obj.AKind);
  E.Flags = static_cast<std::uint8_t>(
      (Obj.isArray() ? RecordIsArray : 0) |
      (Obj.UsedOutsideInit ? RecordUsedOutsideInit : 0));
  E.AllocTime = Obj.AllocTime;
  E.UseCount = Obj.UseCount;
  E.LastUseSite = Obj.LastUseSite;
  // A use the object did not have reads as its alloc time.
  E.FirstUseTime = E.FirstUseBoundary = Obj.AllocTime;
  E.LastUseTime = E.LastUseBoundary = Obj.AllocTime;
  if (Obj.UsedOutsideInit) {
    E.FirstUseTime = Obj.FirstUseTime;
    E.FirstUseBoundary = boundary(Obj.FirstUseEpoch);
  }
  if (Obj.UseCount) {
    E.LastUseTime = Obj.LastUseTime;
    E.LastUseBoundary = boundary(Obj.LastUseEpoch);
  }
  Buf.writeEvent(E);
}

void EventEmitter::collect(const HeapObject &Obj, ByteTime Now) {
  endRecord(EventKind::Collect, Obj, Now);
}

void EventEmitter::survivor(const HeapObject &Obj, ByteTime Now) {
  endRecord(EventKind::Survivor, Obj, Now);
}

void EventEmitter::terminate(ByteTime Now) {
  EventRecord E;
  E.Kind = static_cast<std::uint8_t>(EventKind::Terminate);
  E.Time = Now;
  Buf.writeEvent(E);
}
