//===- daemon/Protocol.h - jdragd session wire protocol ---------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol between an instrumented VM (SocketEventSink) and the
/// out-of-process collector daemon (jdragd), in the mold of heapprofd's
/// client/daemon split. A session is a sequence of length-prefixed
/// messages over one stream socket (Unix or TCP):
///
///   HELLO  pid, client name, stream WireFormat (always 8), protocol
///          version, sampling params -- sent once, first; the daemon
///          opens the session recording.
///   CHUNK  exactly one framed chunk of the existing `.jdev` chunk
///          format, verbatim (16-byte ChunkHeader + payload, or the
///          chunk index footer block). The session protocol adds only
///          the outer message frame; the payload bytes are what
///          FileEventSink would have written, so the daemon can append
///          them to a recording unmodified.
///   BYE    the client's own delivery accounting (chunks/bytes sent and
///          dropped) -- lets the daemon cross-check what it received.
///
/// Message framing is the loss boundary: the daemon appends a chunk to
/// the session recording only once the whole message has arrived, so a
/// connection that dies mid-message leaves the recording at a clean
/// chunk boundary (a valid prefix), never truncated mid-frame. The
/// interrupted chunk is the *client's* to retransmit or spool.
///
/// This header is intentionally self-contained (header-only, POSIX
/// sockets) so the client sink in src/profiler/ and the daemon in
/// src/daemon/ share one definition without a link-time dependency.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_DAEMON_PROTOCOL_H
#define JDRAG_DAEMON_PROTOCOL_H

#include "profiler/EventStream.h"

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace jdrag::daemon {

/// "jdSM", little-endian: leads every session message header.
inline constexpr std::uint32_t SessionMagic = 0x4d53646aU;

/// Bumped on incompatible protocol changes; HELLO carries the client's
/// version and the daemon refuses mismatches instead of mis-decoding.
inline constexpr std::uint32_t ProtocolVersion = 1;

enum class MsgType : std::uint32_t {
  Hello = 1,
  Chunk = 2,
  Bye = 3,
};

/// 16-byte message frame (native-endian, like the chunk framing: a
/// recording daemon runs on the machine -- or at least the architecture
/// -- of its clients).
struct MsgHeader {
  std::uint32_t Magic = SessionMagic;
  std::uint32_t Type = 0;
  std::uint32_t Length = 0; ///< payload bytes following this header
  std::uint32_t Reserved = 0;
};
static_assert(sizeof(MsgHeader) == 16, "wire format is fixed-width");

/// Upper bound on a session message payload: one maximal chunk frame
/// (header + MaxChunkPayload) with slack for the footer block's 8 tail
/// bytes. A reader rejects larger Length fields as corruption.
inline constexpr std::uint32_t MaxMessagePayload =
    profiler::MaxChunkPayload + 64;

/// Client name length bound (HELLO).
inline constexpr std::uint32_t MaxClientName = 256;

struct HelloInfo {
  std::uint64_t Pid = 0;
  profiler::WireFormat Format = profiler::DefaultWireFormat;
  std::uint32_t Protocol = ProtocolVersion;
  std::string Name;
  /// Sampling params behind the session's stream (0 = exact). Carried
  /// as a 16-byte HELLO extension after the name.
  std::uint64_t SampleBytes = 0;
  std::uint64_t SampleSeed = profiler::SamplingParams{}.SampleSeed;
};

/// Client-side delivery accounting carried by BYE.
struct ByeInfo {
  std::uint64_t ChunksSent = 0;
  std::uint64_t BytesSent = 0;
  std::uint64_t ChunksDropped = 0;
  std::uint64_t BytesDropped = 0;
};

inline void appendBytes(std::vector<std::byte> &Out, const void *Data,
                        std::size_t Size) {
  const std::byte *P = static_cast<const std::byte *>(Data);
  Out.insert(Out.end(), P, P + Size);
}

inline void appendMsgHeader(std::vector<std::byte> &Out, MsgType T,
                            std::uint32_t Length) {
  MsgHeader H;
  H.Type = static_cast<std::uint32_t>(T);
  H.Length = Length;
  appendBytes(Out, &H, sizeof(H));
}

/// HELLO payload: u32 protocol version, u32 wire format, u64 pid,
/// u32 name length, name bytes, then a 16-byte sampling extension
/// (u64 sample interval, u64 sample seed). One layout, one format: a
/// session decodes v8 chunk by chunk, so jdragd refuses any other
/// format; `jdrag salvage` rewrites a legacy recording as v8.
inline std::vector<std::byte> encodeHello(const HelloInfo &Info) {
  std::vector<std::byte> Out;
  std::uint32_t NameLen =
      static_cast<std::uint32_t>(std::min<std::size_t>(Info.Name.size(),
                                                       MaxClientName));
  Out.reserve(sizeof(MsgHeader) + 36 + NameLen);
  appendMsgHeader(Out, MsgType::Hello, 36 + NameLen);
  std::uint32_t Proto = Info.Protocol;
  std::uint32_t Fmt = static_cast<std::uint32_t>(Info.Format);
  appendBytes(Out, &Proto, 4);
  appendBytes(Out, &Fmt, 4);
  appendBytes(Out, &Info.Pid, 8);
  appendBytes(Out, &NameLen, 4);
  appendBytes(Out, Info.Name.data(), NameLen);
  appendBytes(Out, &Info.SampleBytes, 8);
  appendBytes(Out, &Info.SampleSeed, 8);
  return Out;
}

inline bool decodeHello(std::span<const std::byte> Payload, HelloInfo &Out,
                        std::string *Err) {
  if (Payload.size() < 20) {
    if (Err)
      *Err = "short HELLO payload";
    return false;
  }
  std::uint32_t Fmt = 0, NameLen = 0;
  std::memcpy(&Out.Protocol, Payload.data(), 4);
  std::memcpy(&Fmt, Payload.data() + 4, 4);
  std::memcpy(&Out.Pid, Payload.data() + 8, 8);
  std::memcpy(&NameLen, Payload.data() + 16, 4);
  if (NameLen > MaxClientName || Payload.size() != 36 + NameLen) {
    if (Err)
      *Err = "malformed HELLO name length";
    return false;
  }
  if (Fmt != static_cast<std::uint32_t>(profiler::DefaultWireFormat)) {
    if (Err)
      *Err = "HELLO carries unsupported wire format " + std::to_string(Fmt) +
             " (jdragd reads format 8)";
    return false;
  }
  Out.Format = profiler::DefaultWireFormat;
  Out.Name.assign(reinterpret_cast<const char *>(Payload.data()) + 20,
                  NameLen);
  std::memcpy(&Out.SampleBytes, Payload.data() + 20 + NameLen, 8);
  std::memcpy(&Out.SampleSeed, Payload.data() + 28 + NameLen, 8);
  return true;
}

/// BYE payload: four u64 counters.
inline std::vector<std::byte> encodeBye(const ByeInfo &Info) {
  std::vector<std::byte> Out;
  Out.reserve(sizeof(MsgHeader) + 32);
  appendMsgHeader(Out, MsgType::Bye, 32);
  appendBytes(Out, &Info.ChunksSent, 8);
  appendBytes(Out, &Info.BytesSent, 8);
  appendBytes(Out, &Info.ChunksDropped, 8);
  appendBytes(Out, &Info.BytesDropped, 8);
  return Out;
}

inline bool decodeBye(std::span<const std::byte> Payload, ByeInfo &Out,
                      std::string *Err) {
  if (Payload.size() != 32) {
    if (Err)
      *Err = "malformed BYE payload";
    return false;
  }
  std::memcpy(&Out.ChunksSent, Payload.data(), 8);
  std::memcpy(&Out.BytesSent, Payload.data() + 8, 8);
  std::memcpy(&Out.ChunksDropped, Payload.data() + 16, 8);
  std::memcpy(&Out.BytesDropped, Payload.data() + 24, 8);
  return true;
}

/// Incremental message framer: append() raw socket bytes in any slicing
/// (a dribbling client, a 64 KB read) and next() yields complete
/// messages. The payload span stays valid until the next append().
class MessageReader {
public:
  enum class Status {
    Message,  ///< H/Payload hold the next complete message
    NeedMore, ///< no complete message buffered yet
    Error,    ///< stream violates the protocol (sticky); see error()
  };

  void append(const std::byte *Data, std::size_t Size) {
    // Compact before growing: drop consumed bytes so a long session
    // does not accrete its whole history in the buffer.
    if (Off) {
      Buf.erase(Buf.begin(), Buf.begin() + static_cast<std::ptrdiff_t>(Off));
      Off = 0;
    }
    Buf.insert(Buf.end(), Data, Data + Size);
  }

  Status next(MsgHeader &H, std::span<const std::byte> &Payload) {
    if (Failed)
      return Status::Error;
    if (Buf.size() - Off < sizeof(MsgHeader))
      return Status::NeedMore;
    std::memcpy(&H, Buf.data() + Off, sizeof(MsgHeader));
    if (H.Magic != SessionMagic)
      return fail("bad session message magic");
    if (H.Type < 1 || H.Type > 3)
      return fail("unknown session message type " + std::to_string(H.Type));
    if (H.Length > MaxMessagePayload)
      return fail("oversized session message");
    if (Buf.size() - Off < sizeof(MsgHeader) + H.Length)
      return Status::NeedMore;
    Payload = std::span<const std::byte>(Buf.data() + Off + sizeof(MsgHeader),
                                         H.Length);
    Off += sizeof(MsgHeader) + H.Length;
    return Status::Message;
  }

  /// Bytes buffered beyond the last complete message (a partial message
  /// in flight when the connection closed).
  std::size_t pendingBytes() const { return Buf.size() - Off; }
  const std::string &error() const { return Err; }

private:
  Status fail(std::string Msg) {
    Failed = true;
    if (Err.empty())
      Err = std::move(Msg);
    return Status::Error;
  }

  std::vector<std::byte> Buf;
  std::size_t Off = 0;
  std::string Err;
  bool Failed = false;
};

//===----------------------------------------------------------------------===//
// Addresses and POSIX socket helpers
//===----------------------------------------------------------------------===//

/// A parsed endpoint spec: `unix:/path/to.sock` or `tcp:HOST:PORT`.
struct Address {
  enum class Kind { Unix, Tcp };
  Kind K = Kind::Unix;
  std::string Path;           ///< Unix
  std::string Host;           ///< Tcp
  std::uint16_t Port = 0;     ///< Tcp

  std::string str() const {
    if (K == Kind::Unix)
      return "unix:" + Path;
    return "tcp:" + Host + ":" + std::to_string(Port);
  }
};

inline bool parseAddress(const std::string &Spec, Address &Out,
                         std::string *Err) {
  if (Spec.rfind("unix:", 0) == 0) {
    Out.K = Address::Kind::Unix;
    Out.Path = Spec.substr(5);
    if (Out.Path.empty() || Out.Path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      if (Err)
        *Err = "bad unix socket path in '" + Spec + "'";
      return false;
    }
    return true;
  }
  if (Spec.rfind("tcp:", 0) == 0) {
    std::string Rest = Spec.substr(4);
    std::size_t Colon = Rest.rfind(':');
    if (Colon == std::string::npos || Colon == 0 ||
        Colon + 1 == Rest.size()) {
      if (Err)
        *Err = "expected tcp:HOST:PORT in '" + Spec + "'";
      return false;
    }
    Out.K = Address::Kind::Tcp;
    Out.Host = Rest.substr(0, Colon);
    unsigned long Port = 0;
    try {
      Port = std::stoul(Rest.substr(Colon + 1));
    } catch (...) {
      Port = 0;
    }
    if (Port == 0 || Port > 65535) {
      if (Err)
        *Err = "bad port in '" + Spec + "'";
      return false;
    }
    Out.Port = static_cast<std::uint16_t>(Port);
    return true;
  }
  if (Err)
    *Err = "address must start with unix: or tcp: ('" + Spec + "')";
  return false;
}

inline bool fillSockaddr(const Address &A, sockaddr_storage &SS,
                         socklen_t &Len, std::string *Err) {
  std::memset(&SS, 0, sizeof(SS));
  if (A.K == Address::Kind::Unix) {
    auto *SU = reinterpret_cast<sockaddr_un *>(&SS);
    SU->sun_family = AF_UNIX;
    std::strncpy(SU->sun_path, A.Path.c_str(), sizeof(SU->sun_path) - 1);
    Len = sizeof(sockaddr_un);
    return true;
  }
  auto *SI = reinterpret_cast<sockaddr_in *>(&SS);
  SI->sin_family = AF_INET;
  SI->sin_port = htons(A.Port);
  // Numeric IPv4 only (plus the "localhost" shorthand): the daemon is a
  // same-machine or same-rack collector, not a name-resolving client.
  std::string Host = A.Host == "localhost" ? "127.0.0.1" : A.Host;
  if (inet_pton(AF_INET, Host.c_str(), &SI->sin_addr) != 1) {
    if (Err)
      *Err = "cannot parse IPv4 host '" + A.Host + "'";
    return false;
  }
  Len = sizeof(sockaddr_in);
  return true;
}

/// Creates, binds and listens on \p A. Returns the fd, or -1 with
/// \p Err. Unix paths are unlinked first (a stale socket from a crashed
/// daemon must not block restart).
inline int listenOn(const Address &A, int Backlog, std::string *Err) {
  sockaddr_storage SS;
  socklen_t Len = 0;
  if (!fillSockaddr(A, SS, Len, Err))
    return -1;
  int Fd = ::socket(A.K == Address::Kind::Unix ? AF_UNIX : AF_INET,
                    SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Err)
      *Err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (A.K == Address::Kind::Unix) {
    ::unlink(A.Path.c_str());
  } else {
    int One = 1;
    ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  }
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&SS), Len) != 0 ||
      ::listen(Fd, Backlog) != 0) {
    if (Err)
      *Err = "bind/listen " + A.str() + ": " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

inline bool setNonBlocking(int Fd, bool On) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags < 0)
    return false;
  Flags = On ? (Flags | O_NONBLOCK) : (Flags & ~O_NONBLOCK);
  return ::fcntl(Fd, F_SETFL, Flags) == 0;
}

/// Connects to \p A with a bounded wait: non-blocking connect + poll,
/// then the socket is returned in *blocking* mode. Returns the fd, or
/// -1 with the failing errno in \p ErrnoOut.
inline int connectTo(const Address &A, int TimeoutMs, int *ErrnoOut) {
  sockaddr_storage SS;
  socklen_t Len = 0;
  std::string Dummy;
  if (!fillSockaddr(A, SS, Len, &Dummy)) {
    if (ErrnoOut)
      *ErrnoOut = EINVAL;
    return -1;
  }
  int Fd = ::socket(A.K == Address::Kind::Unix ? AF_UNIX : AF_INET,
                    SOCK_STREAM, 0);
  if (Fd < 0) {
    if (ErrnoOut)
      *ErrnoOut = errno;
    return -1;
  }
  setNonBlocking(Fd, true);
  int Rc = ::connect(Fd, reinterpret_cast<sockaddr *>(&SS), Len);
  if (Rc != 0 && errno == EINPROGRESS) {
    pollfd P{Fd, POLLOUT, 0};
    Rc = ::poll(&P, 1, TimeoutMs);
    if (Rc == 1) {
      int SoErr = 0;
      socklen_t SoLen = sizeof(SoErr);
      ::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &SoErr, &SoLen);
      errno = SoErr;
      Rc = SoErr == 0 ? 0 : -1;
    } else {
      errno = Rc == 0 ? ETIMEDOUT : errno;
      Rc = -1;
    }
  }
  if (Rc != 0) {
    if (ErrnoOut)
      *ErrnoOut = errno;
    ::close(Fd);
    return -1;
  }
  setNonBlocking(Fd, false);
  if (A.K == Address::Kind::Tcp) {
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  }
  return Fd;
}

} // namespace jdrag::daemon

#endif // JDRAG_DAEMON_PROTOCOL_H
