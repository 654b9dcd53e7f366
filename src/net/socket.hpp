// Thin RAII layer over local (AF_UNIX) stream sockets, plus the framed
// message I/O the protocol rides on.
//
// Local sockets only: the server fronts an in-process SynthesisService for
// co-located clients (the paper's interactive browser), so there is no TLS,
// no auth, and no hostname handling here — just file-system-addressed
// stream endpoints with the kernel's flow control, which is what the
// backpressure design leans on (a client that outruns the server blocks in
// write()).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/protocol.hpp"
#include "util/error.hpp"

namespace dcsn::net {

/// Peer closed the connection cleanly between messages. Distinct from
/// ProtocolError: EOF *inside* a message is a truncation, not a goodbye.
class ConnectionClosed : public util::Error {
 public:
  ConnectionClosed() : util::Error("connection closed by peer") {}
};

/// Move-only owned file descriptor with blocking byte-stream helpers.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Blocking write of the whole buffer. Throws util::Error on any socket
  /// error (EPIPE included — callers treat it as the peer going away).
  void send_all(const void* data, std::size_t n);
  /// Blocking gathered write of `parts`, in order: sendmsg(2) over up to
  /// 256 parts at a time, resumed where a partial write stopped (a signal,
  /// or a full buffer on a non-blocking fd, which is polled).
  void send_all(std::span<const std::span<const std::uint8_t>> parts);

  /// Blocking read of exactly `n` bytes. Returns false on clean EOF before
  /// the first byte; throws ProtocolError when the stream ends mid-buffer
  /// (a truncated message) and util::Error on socket errors.
  [[nodiscard]] bool recv_exact(void* data, std::size_t n);

  /// Half-close helpers (see shutdown(2)). shutdown_read unblocks a peer's
  /// reader with EOF — the server's graceful-drain signal.
  void shutdown_read();
  void shutdown_write();

  void close();

  /// Connected AF_UNIX pair (socketpair(2)) — loopback tests without a
  /// file-system path.
  [[nodiscard]] static std::pair<Socket, Socket> pair();

 private:
  int fd_ = -1;
};

/// Binds and listens on an AF_UNIX path (unlinking any stale socket file).
[[nodiscard]] Socket listen_unix(const std::string& path, int backlog = 16);

/// Blocks up to `timeout_ms` for one incoming connection; empty on timeout
/// or when the listen socket was shut down/closed under us (server stop).
[[nodiscard]] std::optional<Socket> accept_connection(Socket& listener,
                                                      int timeout_ms);

/// Connects to an AF_UNIX path.
[[nodiscard]] Socket connect_unix(const std::string& path);

/// Writes one framed protocol message atomically with respect to this call
/// — callers serialize concurrent senders themselves. Header and payload go
/// out as one gathered write, uncopied.
void send_message(Socket& socket, MsgType type,
                  std::span<const std::uint8_t> payload);

/// Framed messages queued for one gathered write — a whole frame sequence
/// instead of a write per message, so a peer reading small messages finds
/// them already there rather than waking once per message. A message's
/// header and payload are copied into the batch; its tail is referenced
/// and must stay valid and unchanged until send().
class MessageBatch {
 public:
  void add(MsgType type, std::span<const std::uint8_t> payload,
           std::span<const std::uint8_t> tail = {});
  /// Writes every queued message in order and empties the batch, also when
  /// the write throws.
  void send(Socket& socket);

 private:
  /// Owned bytes (bytes_[offset, offset + size)) or a referenced tail.
  struct Part {
    std::size_t offset = 0;
    std::size_t size = 0;
    std::span<const std::uint8_t> tail;
  };
  std::vector<std::uint8_t> bytes_;
  std::vector<Part> parts_;
  std::vector<std::span<const std::uint8_t>> spans_;
};

/// Reads one framed message. Returns false on clean EOF at a message
/// boundary; throws ProtocolError on bad magic, an oversized declared
/// length, unknown type range, or EOF mid-message.
[[nodiscard]] bool read_message(Socket& socket, MsgType* type,
                                std::vector<std::uint8_t>* payload);

}  // namespace dcsn::net
