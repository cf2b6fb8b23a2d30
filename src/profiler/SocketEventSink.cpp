//===- profiler/SocketEventSink.cpp ---------------------------------------===//

#include "profiler/SocketEventSink.h"

#include "daemon/Protocol.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace jdrag;
using namespace jdrag::profiler;

namespace {
/// poll() slice while waiting out a full socket buffer; short enough
/// that SendTimeoutMs is honored with ~100 ms granularity.
constexpr int PollSliceMs = 100;
} // namespace

SocketEventSink::SocketEventSink(Options O) : Opt(std::move(O)) {
  if (!Opt.Pid)
    Opt.Pid = static_cast<std::uint64_t>(::getpid());
  if (Opt.Compress)
    Comp = std::make_unique<ChunkCompressor>();
}

SocketEventSink::~SocketEventSink() { finish(); }

long SocketEventSink::rawSend(const void *Data, std::size_t Size) {
  ++RawSends;
  if (!FaultReset && TotalRawSent >= Opt.Fault.ResetAfterBytes) {
    // One-shot injected connection reset; disarms so the reconnected
    // session proceeds (the daemon is still alive in this scenario).
    FaultReset = true;
    errno = ECONNRESET;
    return -1;
  }
  std::size_t N = Size;
  if (Opt.Fault.ShortSendEvery && Opt.Fault.ShortSendBytes &&
      RawSends % Opt.Fault.ShortSendEvery == 0)
    N = std::min(N, Opt.Fault.ShortSendBytes);
  long R = ::send(Fd, Data, N, MSG_NOSIGNAL);
  if (R > 0)
    TotalRawSent += static_cast<std::uint64_t>(R);
  return R;
}

bool SocketEventSink::dialOnce() {
  daemon::Address A;
  std::string Err;
  if (!daemon::parseAddress(Opt.Connect, A, &Err)) {
    LastErr = EINVAL;
    return false;
  }
  int E = 0;
  int NewFd = daemon::connectTo(A, Opt.ConnectTimeoutMs, &E);
  if (NewFd < 0) {
    LastErr = E;
    return false;
  }
  // The socket runs non-blocking under both policies; sendLoop supplies
  // the waiting (Block) or the shed decision (Drop).
  daemon::setNonBlocking(NewFd, true);
  Fd = NewFd;
  daemon::HelloInfo Hello;
  Hello.Pid = Opt.Pid;
  Hello.Format = Opt.Format;
  Hello.Name = Opt.Name;
  Hello.SampleBytes = Opt.Sampling.SampleBytes;
  Hello.SampleSeed = Opt.Sampling.SampleSeed;
  std::vector<std::byte> Msg = daemon::encodeHello(Hello);
  bool First = false;
  if (!sendLoop(Msg.data(), Msg.size(), First)) {
    teardown();
    return false;
  }
  ++Sessions;
  SessionSeq = 0;
  return true;
}

bool SocketEventSink::ensureConnected() {
  if (Fd >= 0)
    return true;
  if (ConnectGaveUp)
    return false;
  for (std::uint32_t Attempt = 0;; ++Attempt) {
    if (dialOnce())
      return true;
    if (Attempt >= Opt.Backoff.MaxRetries)
      break;
    ++Retries;
    std::this_thread::sleep_for(
        std::chrono::microseconds(backoffDelayMicros(
            Opt.Backoff, Attempt,
            static_cast<std::uint32_t>(Opt.Pid) ^ Attempt)));
  }
  // Budget exhausted: stay degraded for the rest of the run. Dialing a
  // dead daemon on every chunk would stall the VM over and over -- the
  // spool is durable and `jdrag send` forwards it once the daemon is
  // back.
  ConnectGaveUp = true;
  return false;
}

void SocketEventSink::teardown() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

/// Drains \p Size bytes into the socket. On return false the connection
/// is unusable (LastErr says why) -- except the shed case: when
/// \p FirstByteSent stays false and the policy is Drop, a full kernel
/// buffer before the first byte yields false with errno EAGAIN and the
/// caller sheds the chunk instead of tearing down.
bool SocketEventSink::sendLoop(const std::byte *Data, std::size_t Size,
                               bool &FirstByteSent) {
  std::size_t Off = 0;
  int WaitedMs = 0;
  while (Off < Size) {
    errno = 0;
    long N = rawSend(Data + Off, Size - Off);
    if (N > 0) {
      Off += static_cast<std::size_t>(N);
      FirstByteSent = true;
      continue;
    }
    int E = errno;
    if (N == 0)
      E = EIO;
    if (E == EINTR)
      continue;
    if (E == EAGAIN || E == EWOULDBLOCK) {
      if (!FirstByteSent && Opt.Policy == QueueFullPolicy::Drop) {
        errno = EAGAIN;
        return false;
      }
      pollfd P{Fd, POLLOUT, 0};
      int Rc = ::poll(&P, 1, PollSliceMs);
      if (Rc < 0 && errno != EINTR) {
        LastErr = errno;
        return false;
      }
      WaitedMs += PollSliceMs;
      if (Opt.SendTimeoutMs && WaitedMs >= Opt.SendTimeoutMs) {
        // A chunk that cannot drain within the budget means a wedged
        // peer; declare the connection dead rather than trap the VM.
        LastErr = ETIMEDOUT;
        return false;
      }
      continue;
    }
    LastErr = E;
    return false;
  }
  return true;
}

void SocketEventSink::accountDrop(std::size_t Size) {
  ++DroppedChunks;
  DroppedBytes += Size;
}

void SocketEventSink::enterSpoolMode() {
  if (SpoolActive || SpoolFailed)
    return;
  if (Opt.SpoolPath.empty()) {
    SpoolFailed = true;
    return;
  }
  Spool = std::make_unique<FileEventSink>();
  FileEventSink::Options FO;
  FO.Backoff = Opt.Backoff;
  FO.Sampling = Opt.Sampling;
  if (!Spool->open(Opt.SpoolPath, FO)) {
    LastErr = Spool->lastErrno() ? Spool->lastErrno() : EIO;
    Spool.reset();
    SpoolFailed = true;
    return;
  }
  SpoolActive = true;
  ++Failovers;
}

bool SocketEventSink::spoolChunk(const std::byte *Data, std::size_t Size) {
  enterSpoolMode();
  ChunkHeader H;
  std::memcpy(&H, Data, sizeof(H));
  if (!SpoolActive) {
    // No spool to degrade to: a data chunk is real loss, a footer is
    // merely swallowed (footerless streams are valid).
    if (H.Magic == FooterMagic)
      ++FootersSwallowed;
    else
      accountDrop(Size);
    return true;
  }
  if (H.Magic == FooterMagic) {
    // The footer indexes the whole stream; writing it to a spool that
    // holds only the tail (or renumbered chunks) would lie. A footerless
    // v8 stream is valid -- readers rebuild the index.
    if (!SpoolIdentity) {
      ++FootersSwallowed;
      return true;
    }
    if (!Spool->writeChunk(Data, Size)) {
      LastErr = Spool->lastErrno();
      SpoolIdentity = false;
      accountDrop(Size);
      return true;
    }
    SpooledBytes += Size;
    ++SpooledChunks;
    return true;
  }
  if (H.Seq != SpoolSeq)
    SpoolIdentity = false;
  Scratch.assign(Data, Data + Size);
  H.Seq = SpoolSeq;
  std::memcpy(Scratch.data(), &H, sizeof(H));
  if (!Spool->writeChunk(Scratch.data(), Scratch.size())) {
    LastErr = Spool->lastErrno();
    // The spool now misses a chunk the stream contains; a later footer
    // would index bytes the spool never received.
    SpoolIdentity = false;
    accountDrop(Size);
    return true;
  }
  ++SpoolSeq;
  ++SpooledChunks;
  SpooledBytes += Size;
  return true;
}

bool SocketEventSink::writeChunk(const std::byte *Data, std::size_t Size) {
  // Compress up front -- before the session/spool fork -- so every
  // destination carries the same frames: the daemon records them
  // verbatim and a degraded spool holds identical bytes. Like the
  // file sink, this runs on AsyncEventSink's writer thread when this
  // sink sits behind one, off the VM's critical path.
  if (Comp && Size >= sizeof(ChunkHeader)) {
    std::span<const std::byte> T = Comp->transform(Data, Size);
    if (T.empty()) {
      // Structurally invalid frame from the producer: shed it like a
      // runt (never a real EventBuffer frame).
      SessionIdentity = false;
      SpoolIdentity = false;
      accountDrop(Size);
      return true;
    }
    Data = T.data();
    Size = T.size();
  }
  if (Size < sizeof(ChunkHeader)) {
    // A runt frame is shed; whichever destination carries this stream
    // is now missing a flushed chunk, so neither may claim the footer.
    SessionIdentity = false;
    SpoolIdentity = false;
    accountDrop(Size);
    return true;
  }
  if (ConnectGaveUp)
    return spoolChunk(Data, Size);

  ChunkHeader H;
  std::memcpy(&H, Data, sizeof(H));
  bool IsFooter = H.Magic == FooterMagic;
  if (IsFooter && !SessionIdentity) {
    ++FootersSwallowed;
    return true;
  }
  if (!IsFooter && H.Seq != SessionSeq)
    SessionIdentity = false;

  // One session message: outer frame + the chunk verbatim, with the
  // sequence renumbered into this session's stream. Footer frames go
  // verbatim -- their Seq field is the entry count, not a sequence.
  daemon::MsgHeader MH;
  MH.Type = static_cast<std::uint32_t>(daemon::MsgType::Chunk);
  MH.Length = static_cast<std::uint32_t>(Size);
  Scratch.resize(sizeof(MH) + Size);
  std::memcpy(Scratch.data(), &MH, sizeof(MH));
  std::memcpy(Scratch.data() + sizeof(MH), Data, Size);
  if (!IsFooter) {
    ChunkHeader Out = H;
    Out.Seq = SessionSeq;
    std::memcpy(Scratch.data() + sizeof(daemon::MsgHeader), &Out,
                sizeof(Out));
  }

  for (std::uint32_t Attempt = 0;; ++Attempt) {
    if (!ensureConnected())
      return spoolChunk(Data, Size);
    bool First = false;
    if (sendLoop(Scratch.data(), Scratch.size(), First)) {
      BytesSent += Size;
      if (!IsFooter) {
        ++SessionSeq;
        ++ChunksSent;
        if (Opt.OnChunkSent)
          Opt.OnChunkSent(ChunksSent);
      }
      return true;
    }
    if (!First && errno == EAGAIN && Opt.Policy == QueueFullPolicy::Drop) {
      // Kernel buffer full before the first byte: shed this chunk, keep
      // the connection (the daemon is slow, not gone). The session
      // stream now has a gap, so no later footer may be forwarded to it.
      if (IsFooter)
        ++FootersSwallowed;
      else {
        SessionIdentity = false;
        accountDrop(Size);
      }
      return true;
    }
    // Connection failure (possibly mid-message: the daemon discards the
    // partial message, so the whole chunk is ours to resend). Reconnect
    // under the backoff budget and resend from the top; a new session
    // restarts at sequence 0.
    teardown();
    if (IsFooter) {
      // A fresh session will hold none of the chunks the footer
      // indexes; resending it there would lie. Swallow it (not loss).
      ++FootersSwallowed;
      return true;
    }
    // The resend lands in a new session starting at sequence 0; unless
    // this was the stream's first chunk, the daemon-side recording is
    // now a renumbered tail, not the whole stream.
    if (H.Seq != 0)
      SessionIdentity = false;
    if (Attempt >= Opt.Backoff.MaxRetries) {
      ConnectGaveUp = true;
      return spoolChunk(Data, Size);
    }
    ++Retries;
    std::this_thread::sleep_for(
        std::chrono::microseconds(backoffDelayMicros(
            Opt.Backoff, Attempt,
            static_cast<std::uint32_t>(Opt.Pid) ^ Attempt)));
    // Renumber for the session the retry will open (Seq restarts at 0
    // there; ensureConnected resets SessionSeq on success).
    ChunkHeader Out = H;
    Out.Seq = 0;
    std::memcpy(Scratch.data() + sizeof(daemon::MsgHeader), &Out,
                sizeof(Out));
  }
}

bool SocketEventSink::connectNow() {
  return ensureConnected();
}

bool SocketEventSink::finish() {
  if (Finished)
    return DroppedChunks == 0;
  Finished = true;
  if (Fd >= 0) {
    daemon::ByeInfo Bye;
    Bye.ChunksSent = ChunksSent;
    Bye.BytesSent = BytesSent;
    Bye.ChunksDropped = DroppedChunks;
    Bye.BytesDropped = DroppedBytes;
    std::vector<std::byte> Msg = daemon::encodeBye(Bye);
    bool First = false;
    sendLoop(Msg.data(), Msg.size(), First); // best effort
    teardown();
  }
  bool SpoolOk = true;
  if (Spool) {
    SpoolOk = Spool->finish();
    if (!SpoolOk && Spool->lastErrno())
      LastErr = Spool->lastErrno();
  }
  return DroppedChunks == 0 && SpoolOk;
}
