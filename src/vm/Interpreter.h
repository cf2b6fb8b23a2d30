//===- vm/Interpreter.h - Bytecode interpreter ------------------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution engine: a frame-stack bytecode interpreter over the
/// jdrag IR with Java-style exception unwinding, virtual dispatch, the
/// deep-GC protocol (GC, run finalizers, GC -- paper section 2.1.1) and
/// an instrumentation event for every allocation and object use.
///
/// Runtime faults that a correct benchmark never commits (null
/// dereference, array bounds, division by zero) are *traps*: execution
/// stops with a diagnostic instead of modelling the Java exception. Only
/// OutOfMemoryError is thrown as a real exception, since the paper's lazy
/// allocation transformation reasons about OOM handlers (section 3.3.3).
///
/// The hot path is layered (docs/vm-hotpath.md):
///  - dispatch: instructions are pre-decoded into a dense execution form
///    and dispatched by computed goto (GNU labels-as-values, which every
///    compiler that builds jdrag supports -- see support/Format.h);
///  - emission: per-code-index inline caches resolve (context, method,
///    pc) -> SiteId / callee context with one compare instead of a hash
///    lookup per event;
///  - allocation: an allocation-slack budget folds the deep-GC,
///    scheduled-GC and live-byte checks into a single decrement so the
///    common allocation never consults the heap's policy state.
/// tests/data/vm_golden.txt pins the observable result of all three.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_VM_INTERPRETER_H
#define JDRAG_VM_INTERPRETER_H

#include "ir/Program.h"
#include "vm/Heap.h"
#include "vm/Natives.h"

#include <algorithm>
#include <string>

namespace jdrag::vm {

/// Interpreter configuration.
struct InterpreterConfig {
  /// Deep-GC trigger period on the byte clock; 0 disables periodic deep
  /// GC (plain uninstrumented execution). The paper uses 100 KB.
  std::uint64_t DeepGCIntervalBytes = 0;
  /// Hard cap on executed instructions (guards test hangs).
  std::uint64_t MaxSteps = 1ull << 42;
  /// Live-byte budget; exceeding it after a forced GC throws OOM.
  std::uint64_t MaxLiveBytes = ~0ull;
};

/// The bytecode interpreter. Owns the frame stack and the value stack its
/// frames are windows into; registers itself as a GC root source on the
/// heap it executes against.
class Interpreter : public RootSource {
public:
  enum class Status : std::uint8_t { Ok, UncaughtException, StepLimit, Trap };

  /// \p Statics is the global static-field area (rooted by the caller).
  /// \p Natives maps NativeId index to a bound callback (empty entries
  /// trap when called).
  Interpreter(const ir::Program &P, Heap &H, std::vector<Value> &Statics,
              std::vector<NativeFn> Natives, InterpreterConfig Config);
  ~Interpreter() override;

  /// Calls \p M with \p Args (receiver first for instance methods) and
  /// runs to completion. On Ok, \p Ret (if non-null) receives the return
  /// value. On failure \p Err (if non-null) receives a diagnostic.
  Status call(ir::MethodId M, std::span<const Value> Args, Value *Ret,
              std::string *Err);

  /// Runs one deep GC: collect, run pending finalizers, collect again.
  /// No-op if a deep GC is already in progress.
  void runDeepGC();

  /// Pins the preallocated OutOfMemoryError instance (set by the VM).
  void setOOMInstance(Handle H) { OOMInstance = H; }

  /// Sets the event emitter that interns the sites of allocations and
  /// uses and streams the trailers they build (set by the VM; may be
  /// null).
  void setEmitter(EventEmitter *E) { Emitter = E; }

  /// The exception that escaped the last call(), if any.
  Handle pendingException() const { return PendingException; }

  std::uint64_t steps() const { return Steps; }
  std::uint64_t deepGCCount() const { return DeepGCs; }

  void visitRoots(HandleVisitor Visit) override;

  /// Records a native handle dereference as a use (NativeContext::deref
  /// calls this).
  void fireNativeUse(Handle H);

  Heap &heap() { return TheHeap; }
  const ir::Program &program() const { return P; }

private:
  /// The dense execution form instructions are pre-decoded into, one per
  /// ir::Instruction (same pc numbering). Besides the flattened operand
  /// fields it carries the two monomorphic inline caches:
  ///  - (SiteCtx -> Site): the interned SiteId for an event fired at this
  ///    code index while the frame's call context is SiteCtx;
  ///  - (CtxParent -> CtxChild): the callee context-trie node for an
  ///    invoke at this code index under parent context CtxParent.
  /// A cache hit is valid by construction -- the keyed context is part of
  /// the cache line, so a context change simply misses and refills; no
  /// invalidation protocol exists or is needed. A hit can never skip a
  /// DefineSite record: the site was interned (and defined in-stream) on
  /// the fill, so cached replies are always to already-defined sites.
  struct DecodedInsn {
    ir::Opcode Op = ir::Opcode::Nop;
    std::uint32_t Line = 0;
    std::int32_t A = 0;
    union {
      std::int64_t IVal = 0;
      double DVal;
    };
    std::uint32_t SiteCtx = ~static_cast<std::uint32_t>(0);
    std::uint32_t Site = ~static_cast<std::uint32_t>(0); // profiler::SiteId
    std::uint32_t CtxParent = ~static_cast<std::uint32_t>(0);
    std::uint32_t CtxChild = 0;
  };

  /// One activation: a window into the interpreter's value stack
  /// (Values), held as indices so the stack can grow by a plain resize.
  /// The window is [LocalsAt, StackAt + M->MaxStack): the method's
  /// locals, then its operand stack, whose live part is [StackAt, Sp).
  /// A callee's locals start where its caller's arguments start, so
  /// arguments are passed in place.
  struct Frame {
    const ir::MethodInfo *M = nullptr;
    /// Decoded image of M->Code (owned by Interpreter::Decoded; shared by
    /// all activations of the method, which is what makes the per-pc
    /// caches inline caches rather than per-frame state).
    DecodedInsn *Code = nullptr;
    std::uint32_t Pc = 0;
    /// Call-context trie node of this activation (EventEmitter);
    /// RootContext for base frames pushed by call().
    std::uint32_t Ctx = 0;
    std::uint32_t LocalsAt = 0;
    std::uint32_t StackAt = 0; ///< LocalsAt + M->numLocals()
    /// One past the top operand. Like Pc, a snapshot of the main loop's
    /// hoisted pointer, published by SYNC(); GC roots end here.
    std::uint32_t Sp = 0;
    Handle Receiver;          ///< valid for constructor frames
    bool IsCtorFrame = false; ///< InitDepth bookkeeping on pop
    std::uint64_t Serial = 0; ///< monotonic frame identity (ctor frames)
  };

  /// Executes until the frame stack shrinks back to \p Base frames (the
  /// threaded main loop, InterpreterLoop.inc).
  Status execute(std::size_t Base, std::string *Err);

  /// Returns (decoding on first request) the dense code of \p M.
  DecodedInsn *decodedCode(const ir::MethodInfo &M);

  /// Recomputes AllocSlack from the heap's policy state
  /// (Heap::allocationSlack -- the single point where the heap folds
  /// its boundaries into the gate) plus the interpreter's own
  /// deep-GC and live-byte budgets. Safe at any point where CachedClock
  /// equals the true clock.
  void recomputeAllocSlack();

  /// Pushes a frame for \p M whose locals start at \p LocalsAt, where
  /// its arguments already lie; zeroes the other locals and grows Values
  /// to hold the window. \p Ctx is the activation's call-context trie
  /// node (RootContext for base frames).
  void pushFrame(const ir::MethodInfo &M, std::uint32_t LocalsAt,
                 std::uint32_t Ctx = 0);

  /// Grows Values to at least \p Slots values.
  void reserveValues(std::size_t Slots) {
    if (Slots > Values.size())
      Values.resize(std::max(Slots, 2 * Values.size()));
  }

  /// Pops the top frame, maintaining InitDepth bookkeeping.
  void popFrame();

  /// Unwinds \p Ex to the nearest matching handler, not unwinding past
  /// \p Base frames. Returns true if a handler took over.
  bool throwToHandler(Handle Ex, std::size_t Base);

  /// Raises OOM after a failed allocation budget check.
  bool raiseOOM(std::size_t Base);

  /// Runs all pending finalizers (swallowing their exceptions).
  void runPendingFinalizers();

  /// Records a use of the object behind \p H in its trailer.
  void fireUse(Handle H, bool CalleeIsCtor = false);

  /// Runs the sampling decision for the object behind \p H and, when
  /// sampled, starts its trailer.
  void fireAllocate(Handle H);

  /// The interned site (a profiler::SiteId) of the current frame's pc,
  /// through the pc's inline cache. Requires an emitter.
  std::uint32_t currentSite();

  /// Formats "Class.method pc N (line L)" for diagnostics.
  std::string here() const;

  const ir::Program &P;
  Heap &TheHeap;
  std::vector<Value> &Statics;
  std::vector<NativeFn> Natives;
  EventEmitter *Emitter = nullptr;
  InterpreterConfig Config;

  std::vector<Frame> Frames;
  /// The value stack every frame is a window into. It starts small and
  /// grows (reserveValues) only when a push needs the room; anything
  /// that can push a frame therefore invalidates pointers into it.
  std::vector<Value> Values;
  /// Strictly increasing stack of serials of active constructor frames.
  std::vector<std::uint64_t> ActiveCtorSerials;
  std::uint64_t NextFrameSerial = 1;
  std::vector<Handle> FinalizingNow; ///< roots while finalizers run
  Handle PendingException;
  Handle OOMInstance;
  /// Arguments of the native being called. Natives do not get them in
  /// place: a re-entrant call() writes at the caller's Sp, where they lie.
  std::vector<Value> ArgScratch;
  Value TopReturn;
  std::string TrapMessage;
  ByteTime LastDeepGC = 0;
  std::uint64_t Steps = 0;
  std::uint64_t DeepGCs = 0;
  bool InDeepGC = false;
  bool Trapped = false;

  /// Lazily decoded per-method code, indexed by MethodId. Inner vectors
  /// are filled once and never resized after, so Frame::Code pointers
  /// into them stay valid across pushes.
  std::vector<std::vector<DecodedInsn>> Decoded;
  /// Mirror of TheHeap.clock(), refreshed at execute() entry and at every
  /// allocation/GC boundary; events read it instead of paying a heap
  /// indirection per event. The clock ONLY advances at allocation, so
  /// between those boundaries the mirror is exact by construction.
  ByteTime CachedClock = 0;
  /// Bytes the next allocations may consume without ANY policy check
  /// firing: min of deep-GC slack, scheduled-GC (nursery) slack and
  /// live-byte budget slack. The allocation fast path tests
  /// `Bytes < AllocSlack` and decrements; every slow-path allocation (or
  /// any GC) recomputes it exactly. The decrement keeps the invariant
  /// AllocSlack <= true slack, so the fast path can never overrun a GC
  /// trigger point the slow path would have stopped at.
  std::uint64_t AllocSlack = 0;
};

const char *statusName(Interpreter::Status S);

} // namespace jdrag::vm

#endif // JDRAG_VM_INTERPRETER_H
