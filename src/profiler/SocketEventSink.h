//===- profiler/SocketEventSink.h - Stream to a jdragd daemon ---*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VM side of the out-of-process collector: an EventSink that
/// streams flushed chunks to a jdragd daemon over a Unix or TCP socket
/// (docs/daemon.md describes the session protocol), built so that *no
/// daemon failure can take the instrumented VM down with it*:
///
///   - connect happens lazily with a bounded timeout; an unreachable
///     daemon costs the retry budget once, not a hang;
///   - a broken connection is retried with exponential backoff +
///     deterministic jitter (shared BackoffPolicy); each new connection
///     is a fresh session whose chunk sequence numbers restart at zero,
///     so every daemon-side session recording is a standalone valid
///     `.jdev` stream;
///   - backpressure follows AsyncEventSink's policies: Block waits for
///     the socket (lossless), Drop sheds a chunk the kernel cannot take
///     immediately and accounts it;
///   - past the reconnect budget the sink *fails over* to a local spool
///     file -- a plain `.jdev` that `jdrag send` forwards later -- so
///     data outlives the outage. Spooled chunks are accounted apart from
///     drops (StreamHealth::SpooledChunks/Failovers); intact() stays
///     true for a fully-spooled stream.
///
/// The end-to-end contract: every chunk the EventBuffer flushes either
/// reaches a daemon session, reaches the spool, or is counted dropped.
/// A chunk index footer is forwarded verbatim only when the
/// destination received the *entire* stream unrenumbered (it would lie
/// otherwise); a swallowed footer is not data loss -- footerless v8
/// streams are valid and readers rebuild the index.
///
/// Fault injection for tests mirrors FaultInjectionSink: a
/// SocketFaultPlan makes rawSend() short-write on a deterministic
/// cadence or fail once with ECONNRESET, exercising the partial-write,
/// reconnect and failover paths without a flaky network.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_PROFILER_SOCKETEVENTSINK_H
#define JDRAG_PROFILER_SOCKETEVENTSINK_H

#include "profiler/AsyncEventSink.h"
#include "profiler/EventStream.h"

#include <atomic>
#include <functional>
#include <memory>
#include <string>

namespace jdrag::profiler {

/// Deterministic socket-level fault schedule (sibling of
/// FaultInjectionSink::Plan). Applied inside rawSend(), under the real
/// send-loop, so short sends and connection resets exercise the same
/// code paths a hostile network would.
struct SocketFaultPlan {
  /// Once this many bytes were sent in total, the next send fails with
  /// ECONNRESET -- once (the plan disarms so the reconnect succeeds).
  std::uint64_t ResetAfterBytes = ~0ull;
  /// Cap every ShortSendEvery-th send() to this many bytes (a partial
  /// write the send loop must complete). 0 disables.
  std::size_t ShortSendBytes = 0;
  std::uint32_t ShortSendEvery = 0;
};

class SocketEventSink : public EventSink {
public:
  /// Same Block/Drop semantics as the async writer queue.
  using QueueFullPolicy = AsyncEventSink::QueueFullPolicy;

  struct Options {
    /// Daemon endpoint: `unix:/path/to.sock` or `tcp:HOST:PORT`.
    std::string Connect;
    /// Local `.jdev` the sink degrades to past the reconnect budget
    /// (empty = no spool; undeliverable chunks are dropped instead).
    std::string SpoolPath;
    /// Client name carried by HELLO (shows up in `CLIENTS`).
    std::string Name = "vm";
    /// Pid carried by HELLO; 0 = this process.
    std::uint64_t Pid = 0;
    /// Wire format announced in HELLO. Must be v8, the only format
    /// written and the only one jdragd reads (it refuses any other). The
    /// field stays for pipebench/driver.cpp, which still sets it.
    WireFormat Format = DefaultWireFormat;
    /// Sampling params behind the stream; carried by HELLO so the
    /// daemon scales this session's estimates, and stamped on the spool
    /// header so a degraded recording stays self-describing.
    SamplingParams Sampling;
    /// Compress chunk payloads (LZ, support/Lz.h) before they leave the
    /// process: the daemon receives -- and records verbatim --
    /// compressed frames, and a degraded spool holds the same bytes.
    /// Compression happens once, here, so the wire and the spool never
    /// diverge.
    bool Compress = false;
    /// Reconnect/retry schedule (shared with FileEventSink). Jitter on
    /// by default: a daemon restart must not be met by a thundering
    /// herd of lock-step clients.
    BackoffPolicy Backoff{/*MaxRetries=*/5, /*BaseDelayMicros=*/1000,
                          /*MaxDelayShift=*/7, /*Jitter=*/true};
    /// Bound on one connect attempt.
    int ConnectTimeoutMs = 2000;
    /// Block: wait for the kernel buffer (lossless backpressure).
    /// Drop: shed a chunk the kernel cannot take at all right now.
    QueueFullPolicy Policy = QueueFullPolicy::Block;
    /// Bound on draining one chunk once partially sent (both policies;
    /// a committed chunk must finish or the connection is declared
    /// wedged and torn down). 0 = wait forever.
    int SendTimeoutMs = 10000;
    /// Test fault schedule (none by default).
    SocketFaultPlan Fault;
    /// Test hook: called after every chunk fully handed to the daemon,
    /// with the running count of delivered chunks.
    std::function<void(std::uint64_t)> OnChunkSent;
  };

  explicit SocketEventSink(Options Opt);
  ~SocketEventSink() override;
  SocketEventSink(const SocketEventSink &) = delete;
  SocketEventSink &operator=(const SocketEventSink &) = delete;

  /// Eagerly dials the daemon (writeChunk connects lazily otherwise).
  /// False if the connect budget was exhausted -- the sink is still
  /// usable; it starts in spool/drop degradation.
  bool connectNow();

  bool writeChunk(const std::byte *Data, std::size_t Size) override;
  /// Sends BYE on a live session, finishes the spool if one was
  /// opened. True only if no chunk was dropped (spooling is not loss).
  bool finish() override;

  int lastErrno() const override { return LastErr; }
  std::uint32_t retries() const override { return Retries; }
  std::uint64_t droppedChunks() const override { return DroppedChunks; }
  std::uint64_t droppedBytes() const override { return DroppedBytes; }
  std::uint64_t spooledChunks() const override { return SpooledChunks; }
  std::uint64_t spooledBytes() const override { return SpooledBytes; }
  std::uint32_t failovers() const override { return Failovers; }

  /// Chunks fully delivered over the socket (all sessions).
  std::uint64_t chunksSent() const { return ChunksSent; }
  /// Connections established (each is a fresh daemon-side session).
  std::uint32_t sessionsOpened() const { return Sessions; }
  /// Chunk index footers deliberately not forwarded because the
  /// destination did not hold the whole stream (not data loss).
  std::uint32_t footersSwallowed() const { return FootersSwallowed; }
  /// Compression accounting (0 both when not compressing): payload
  /// bytes before and after the LZ pass, data chunks only.
  std::uint64_t rawPayloadBytes() const {
    return Comp ? Comp->rawPayloadBytes() : 0;
  }
  std::uint64_t wirePayloadBytes() const {
    return Comp ? Comp->wirePayloadBytes() : 0;
  }
  bool connected() const { return Fd >= 0; }
  bool spooling() const { return SpoolActive; }

protected:
  /// Send seam (tests override; the default applies Options::Fault then
  /// ::send with MSG_NOSIGNAL). Returns bytes sent, or -1 with errno.
  virtual long rawSend(const void *Data, std::size_t Size);

private:
  bool ensureConnected();
  bool dialOnce();
  void teardown();
  bool sendLoop(const std::byte *Data, std::size_t Size, bool &FirstByteSent);
  bool deliverToDaemon(const std::byte *Data, std::size_t Size);
  void enterSpoolMode();
  bool spoolChunk(const std::byte *Data, std::size_t Size);
  void accountDrop(std::size_t Size);

  Options Opt;
  int Fd = -1;
  bool ConnectGaveUp = false; ///< budget exhausted; stay degraded
  bool SpoolActive = false;
  bool SpoolFailed = false;
  bool Finished = false;
  std::unique_ptr<FileEventSink> Spool;
  std::unique_ptr<ChunkCompressor> Comp; ///< non-null when compressing

  // Per-destination sequence renumbering. Each daemon session and the
  // spool restart chunk sequences at 0 so every destination is a
  // standalone stream; Identity tracks whether the renumbering has been
  // the identity map since stream start (the footer-forwarding gate).
  std::uint32_t SessionSeq = 0;
  std::uint32_t SpoolSeq = 0;
  bool SessionIdentity = true;
  bool SpoolIdentity = true;
  std::vector<std::byte> Scratch;

  std::uint64_t TotalRawSent = 0; ///< fault-plan odometer
  std::uint32_t RawSends = 0;     ///< fault-plan cadence counter
  bool FaultReset = false;        ///< one-shot reset already fired

  // Health counters. Atomic because when this sink sits behind an
  // AsyncEventSink only the writer thread advances them, but the
  // producer thread reads them mid-run through the accessors above
  // (EventBuffer::health()); each is an independent momentary snapshot,
  // exact once finish() has joined the writer.
  std::atomic<std::uint64_t> ChunksSent{0};
  std::atomic<std::uint64_t> BytesSent{0};
  std::atomic<std::uint64_t> DroppedChunks{0};
  std::atomic<std::uint64_t> DroppedBytes{0};
  std::atomic<std::uint64_t> SpooledChunks{0};
  std::atomic<std::uint64_t> SpooledBytes{0};
  std::atomic<std::uint32_t> Failovers{0};
  std::atomic<std::uint32_t> FootersSwallowed{0};
  std::atomic<std::uint32_t> Retries{0};
  std::atomic<std::uint32_t> Sessions{0};
  std::atomic<int> LastErr{0};
};

} // namespace jdrag::profiler

#endif // JDRAG_PROFILER_SOCKETEVENTSINK_H
