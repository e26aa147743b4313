#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace dpn::net {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError{what + ": " + std::strerror(errno)};
}

sockaddr_in make_address(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host.empty() || host == "*") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Loopback-by-name is the only hostname we resolve without a resolver
    // library; distributed tests run on localhost.
    if (host == "localhost") {
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    } else {
      throw NetError{"cannot parse IPv4 address '" + host + "'"};
    }
  }
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    kill_after_ = other.kill_after_;
    other.fd_ = -1;
    other.kill_after_ = -1;
  }
  return *this;
}

Socket Socket::start_connect(const std::string& host, std::uint16_t port,
                             std::chrono::milliseconds timeout) {
  const auto plan = fault::Plan::current();
  if (plan) plan->apply_connect(host, port, timeout);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket sock{fd};
  const sockaddr_in addr = make_address(host, port);
  // Non-blocking connect: a blackholed address (SYN never answered) must
  // not hold the caller for the kernel's minutes-long SYN retry cycle.
  sock.set_nonblocking(true);
  sock.set_no_delay(true);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0 &&
      errno != EINPROGRESS) {
    throw NetError{"connect to " + host + ":" + std::to_string(port) + ": " +
                   std::strerror(errno)};
  }
  if (plan) {
    if (const auto budget = plan->take_kill_budget(host, port)) {
      sock.kill_after_ = static_cast<std::int64_t>(*budget);
    }
  }
  return sock;
}

Socket Socket::connect(const std::string& host, std::uint16_t port,
                       std::chrono::milliseconds timeout) {
  Socket sock = start_connect(host, port, timeout);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  const std::string where = host + ":" + std::to_string(port);
  for (;;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{};
    pfd.fd = sock.fd_;
    pfd.events = POLLOUT;
    const int n = ::poll(&pfd, 1, static_cast<int>(std::max<long long>(
                                      remaining.count(), 0)));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (n == 0) {
      throw NetError{"connect to " + where + " timed out after " +
                     std::to_string(timeout.count()) + "ms"};
    }
    break;
  }
  int err = 0;
  socklen_t len = sizeof err;
  if (::getsockopt(sock.fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    throw_errno("getsockopt(SO_ERROR)");
  }
  if (err != 0) {
    throw NetError{"connect to " + where + ": " + std::strerror(err)};
  }
  sock.set_nonblocking(false);
  obs::flight_record_named(obs::FlightKind::kNetDial, host, port);
  return sock;
}

Socket connect_with_retry(const std::string& host, std::uint16_t port,
                          const fault::RetryPolicy& policy) {
  // The whole retry loop is one sample: what the caller experienced,
  // backoff included, not the kernel's view of a single attempt.
  const auto start = std::chrono::steady_clock::now();
  Socket socket = fault::with_retry(
      policy, "connect to " + host + ":" + std::to_string(port),
      [&] { return Socket::connect(host, port, policy.connect_timeout); });
  obs::runtime_histograms().connect.record_shared(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return socket;
}

std::size_t Socket::read_some(MutableByteSpan out) {
  if (out.empty()) return 0;
  for (;;) {
    const ssize_t n = ::recv(fd_, out.data(), out.size(), 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == ECONNRESET || errno == EBADF || errno == ENOTCONN) {
      // Peer vanished or we shut down locally: treat as end-of-stream so
      // the cascading-termination path runs instead of a hard error.
      return 0;
    }
    throw_errno("recv");
  }
}

namespace {

/// Blocking sends of all of `data`: ChannelClosed once the peer is gone.
void send_all(int fd, ByteSpan data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) throw ChannelClosed{};
      throw_errno("send");
    }
    data = data.subspan(static_cast<std::size_t>(n));
  }
}

}  // namespace

void Socket::write_all(ByteSpan data) {
  if (kill_after_ >= 0) return write_metered(data);
  send_all(fd_, data);
}

/// Kill-after-bytes slow path: send up to the remaining budget, then
/// simulate the node crashing mid-stream (RST, then ChannelClosed -- the
/// same thing a writer sees when a real peer dies).
void Socket::write_metered(ByteSpan data) {
  while (!data.empty()) {
    if (kill_after_ == 0) {
      // The fatal transport edge a post-mortem dump must contain: the
      // injected crash point, distinguishable from a real peer death.
      obs::flight_record_named(obs::FlightKind::kNetRst, "kill-after",
                               static_cast<std::uint64_t>(fd_));
      hard_reset();
      throw ChannelClosed{"socket killed after byte budget (fault injection)"};
    }
    const std::size_t chunk = std::min<std::size_t>(
        data.size(), static_cast<std::size_t>(kill_after_));
    send_all(fd_, data.subspan(0, chunk));
    kill_after_ -= static_cast<std::int64_t>(chunk);
    data = data.subspan(chunk);
  }
}

void Socket::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::hard_reset() {
  if (fd_ < 0) return;
  linger lin{};
  lin.l_onoff = 1;
  lin.l_linger = 0;
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lin, sizeof lin);
  ::close(fd_);
  fd_ = -1;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint16_t Socket::local_port() const {
  if (fd_ < 0) return 0;  // closed: don't hand -1 to getsockname
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

std::string Socket::peer_description() const {
  if (fd_ < 0) return "<disconnected>";  // closed: don't query -1
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getpeername(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return "<disconnected>";
  }
  char buf[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof buf);
  return std::string{buf} + ":" + std::to_string(ntohs(addr.sin_port));
}

void Socket::set_no_delay(bool on) {
  const int flag = on ? 1 : 0;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &flag, sizeof flag);
}

void Socket::set_nonblocking(bool on) {
  if (fd_ < 0) return;
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, want) != 0) throw_errno("fcntl(F_SETFL)");
}

std::optional<std::size_t> Socket::try_read_some(MutableByteSpan out) {
  if (out.empty()) return std::size_t{0};
  for (;;) {
    const ssize_t n = ::recv(fd_, out.data(), out.size(), 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    if (errno == ECONNRESET || errno == ENOTCONN) {
      return std::size_t{0};  // end-of-stream, as in read_some
    }
    // EBADF deliberately NOT mapped to end-of-stream here: the mux
    // reactor only calls this on a descriptor it believes is registered,
    // so a bad fd is a double-close or fd-recycle bug that must be loud,
    // not a silent eof.
    throw_errno("recv");
  }
}

std::optional<std::size_t> Socket::try_write_some(ByteSpan data) {
  if (data.empty()) return std::size_t{0};
  // Metered (fault-injected) sockets cap each attempt to the remaining
  // byte budget and crash the connection when it runs out -- the shared
  // mux connection dies mid-stream exactly like a per-channel socket.
  if (kill_after_ == 0) {
    obs::flight_record_named(obs::FlightKind::kNetRst, "kill-after",
                             static_cast<std::uint64_t>(fd_));
    hard_reset();
    throw ChannelClosed{"socket killed after byte budget (fault injection)"};
  }
  if (kill_after_ > 0) {
    data = data.subspan(
        0, std::min<std::size_t>(data.size(),
                                 static_cast<std::size_t>(kill_after_)));
  }
  for (;;) {
    const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n >= 0) {
      if (kill_after_ > 0) kill_after_ -= n;
      return static_cast<std::size_t>(n);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    if (errno == EPIPE || errno == ECONNRESET) throw ChannelClosed{};
    throw_errno("send");
  }
}

ServerSocket::ServerSocket(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = make_address("*", port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw NetError{"bind port " + std::to_string(port) + ": " +
                   std::strerror(err)};
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    throw NetError{std::string{"listen: "} + std::strerror(err)};
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int err = errno;
    ::close(fd);
    throw NetError{std::string{"getsockname: "} + std::strerror(err)};
  }
  port_ = ntohs(addr.sin_port);
  fd_.store(fd, std::memory_order_release);
}

Socket ServerSocket::accept() {
  for (;;) {
    const int fd = ::accept(fd_.load(std::memory_order_acquire), nullptr,
                            nullptr);
    if (fd >= 0) {
      Socket sock{fd};
      if (const auto plan = fault::Plan::current();
          plan && plan->take_refuse_accept(port_)) {
        sock.hard_reset();  // the dialer sees a refused/reset connection
        continue;
      }
      sock.set_no_delay(true);
      return sock;
    }
    if (errno == EINTR) continue;
    throw NetError{std::string{"accept: "} + std::strerror(errno)};
  }
}

void ServerSocket::close() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() first so a concurrent accept() wakes with an error.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace dpn::net
