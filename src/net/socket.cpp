#include "net/socket.hpp"

#include <array>
#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

namespace dcsn::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw util::Error(what + ": " + std::strerror(errno));
}

/// Parts one sendmsg(2) takes; a whole browse frame of references is one
/// owned part, and a full frame ~200.
constexpr std::size_t kIovecs = 256;

}  // namespace

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Socket::send_all(const void* data, std::size_t n) {
  const std::span<const std::uint8_t> part(static_cast<const std::uint8_t*>(data), n);
  send_all(std::span(&part, 1));
}

void Socket::send_all(std::span<const std::span<const std::uint8_t>> parts) {
  std::array<iovec, kIovecs> iov{};
  std::size_t next = 0;  // first part not yet fully written
  std::size_t skip = 0;  // bytes of parts[next] already written
  for (;;) {
    std::size_t n = 0;
    for (std::size_t i = next; i < parts.size() && n < iov.size(); ++i) {
      const std::size_t from = i == next ? skip : 0;
      if (parts[i].size() == from) continue;
      iov[n++] = {const_cast<std::uint8_t*>(parts[i].data() + from),
                  parts[i].size() - from};
    }
    if (n == 0) return;
    msghdr msg{};
    msg.msg_iov = iov.data();
    msg.msg_iovlen = n;
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
    const ssize_t sent = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {  // a non-blocking fd
        pollfd p{fd_, POLLOUT, 0};
        (void)::poll(&p, 1, -1);
        continue;
      }
      throw_errno("sendmsg");
    }
    // Skip what went out; a partly written part resumes where it stopped.
    auto done = static_cast<std::size_t>(sent);
    while (next < parts.size() && done >= parts[next].size() - skip) {
      done -= parts[next].size() - skip;
      skip = 0;
      ++next;
    }
    skip += done;
  }
}

bool Socket::recv_exact(void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    if (r == 0) {
      if (got == 0) return false;  // clean EOF at a boundary
      throw ProtocolError("connection closed mid-message");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

void Socket::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::pair<Socket, Socket> Socket::pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw_errno("socketpair");
  }
  return {Socket(fds[0]), Socket(fds[1])};
}

Socket listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw util::Error("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("socket");
  ::unlink(path.c_str());  // stale socket file from a previous run
  if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw_errno("bind " + path);
  }
  if (::listen(s.fd(), backlog) != 0) throw_errno("listen " + path);
  return s;
}

std::optional<Socket> accept_connection(Socket& listener, int timeout_ms) {
  pollfd p{listener.fd(), POLLIN, 0};
  const int rc = ::poll(&p, 1, timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) return std::nullopt;
    throw_errno("poll");
  }
  if (rc == 0) return std::nullopt;  // timeout
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) return std::nullopt;  // racing close/shutdown: caller re-checks
  return Socket(fd);
}

Socket connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw util::Error("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("socket");
  if (::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw_errno("connect " + path);
  }
  return s;
}

void send_message(Socket& socket, MsgType type,
                  std::span<const std::uint8_t> payload) {
  const auto header = message_header(type, payload.size());
  const std::span<const std::uint8_t> parts[] = {header, payload};
  socket.send_all(parts);
}

void MessageBatch::add(MsgType type, std::span<const std::uint8_t> payload,
                       std::span<const std::uint8_t> tail) {
  const auto header = message_header(type, payload.size() + tail.size());
  const std::size_t offset = bytes_.size();
  bytes_.insert(bytes_.end(), header.begin(), header.end());
  bytes_.insert(bytes_.end(), payload.begin(), payload.end());
  const std::size_t size = bytes_.size() - offset;
  // Owned bytes right after owned bytes extend the same part.
  if (!parts_.empty() && parts_.back().tail.empty()) {
    parts_.back().size += size;
  } else {
    parts_.push_back({offset, size, {}});
  }
  if (!tail.empty()) parts_.push_back({0, 0, tail});
}

void MessageBatch::send(Socket& socket) {
  // Owned parts become spans only now, when bytes_ no longer moves.
  spans_.clear();
  for (const Part& part : parts_) {
    spans_.push_back(part.tail.empty()
                         ? std::span<const std::uint8_t>(bytes_.data() + part.offset, part.size)
                         : part.tail);
  }
  const auto empty = [this] {
    bytes_.clear();
    parts_.clear();
  };
  try {
    socket.send_all(spans_);
  } catch (...) {
    empty();  // no stale tail outlives a failed write
    throw;
  }
  empty();
}

bool read_message(Socket& socket, MsgType* type,
                  std::vector<std::uint8_t>* payload) {
  std::uint8_t header[kHeaderBytes];
  if (!socket.recv_exact(header, sizeof(header))) return false;
  std::uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) {
    magic |= static_cast<std::uint32_t>(header[i]) << (8 * i);
  }
  if (magic != kMagic) throw ProtocolError("bad message magic");
  const std::uint8_t raw_type = header[4];
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(header[5 + i]) << (8 * i);
  }
  // Reject the declared length *before* allocating: a corrupt or hostile
  // prefix must not become a multi-gigabyte resize.
  if (len > kMaxPayloadBytes) {
    throw ProtocolError("declared payload length exceeds limit");
  }
  payload->resize(len);
  if (len > 0 && !socket.recv_exact(payload->data(), len)) {
    throw ProtocolError("connection closed mid-message");
  }
  *type = static_cast<MsgType>(raw_type);
  return true;
}

}  // namespace dcsn::net
