#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "fault/fault.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

/// Thin RAII wrappers over BSD TCP sockets (IPv4).  The mux transport
/// (net/mux.hpp) runs every connection over one, nonblocking, from its
/// reactor loops; blocking use is left to plain threads (the Prometheus
/// exporter, tests).
namespace dpn::net {

/// A connected TCP socket.  Move-only; the descriptor closes on
/// destruction.
class Socket {
 public:
  /// Default per-connect deadline.  Finite on purpose: a blackholed peer
  /// (SYN never answered) must surface as NetError, never as an
  /// indefinite hang.
  static constexpr std::chrono::milliseconds kDefaultConnectTimeout{10000};

  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept
      : fd_(other.fd_), kill_after_(other.kill_after_) {
    other.fd_ = -1;
    other.kill_after_ = -1;
  }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to host:port within `timeout` (start_connect + poll);
  /// throws NetError on failure or deadline expiry.  Blocks the calling
  /// thread.
  static Socket connect(const std::string& host, std::uint16_t port,
                        std::chrono::milliseconds timeout =
                            kDefaultConnectTimeout);

  /// Starts a connect to host:port and returns at once: the socket is
  /// nonblocking and may still be connecting, so its first writable edge
  /// (or error) tells the outcome.  Throws NetError when the connect
  /// cannot start.  Consults the installed fault::Plan: its drop and delay
  /// rules (a delay of `timeout` or more is a connect timeout) and its
  /// kill-after-bytes arming.
  static Socket start_connect(const std::string& host, std::uint16_t port,
                              std::chrono::milliseconds timeout);

  bool valid() const { return fd_ >= 0; }

  /// Reads up to out.size() bytes; 0 means orderly shutdown by the peer.
  /// Throws NetError on hard failure.  Blocks the calling thread.
  std::size_t read_some(MutableByteSpan out);

  /// Writes all bytes; throws ChannelClosed on EPIPE/ECONNRESET (the
  /// remote reader is gone -- maps onto channel close semantics), NetError
  /// otherwise.  Blocks the calling thread.
  void write_all(ByteSpan data);

  /// Half-close of the send direction (delivers EOF to the peer).
  void shutdown_write();
  /// Half-close of the receive direction.
  void shutdown_read();

  /// Abortive close: SO_LINGER{0} + close emits RST instead of FIN, so
  /// the peer sees a crashed endpoint, not an orderly shutdown.  Used by
  /// fault injection to simulate a killed node.
  void hard_reset();

  void close();

  std::uint16_t local_port() const;
  std::string peer_description() const;

  /// Disables Nagle; remote channels are latency-sensitive.
  void set_no_delay(bool on);

  /// Switches the descriptor in/out of O_NONBLOCK.  The event-loop
  /// backend runs its connections nonblocking; everything else stays
  /// blocking.
  void set_nonblocking(bool on);

  /// Nonblocking single read attempt (fd must be in O_NONBLOCK):
  /// nullopt when the operation would block, 0 at end-of-stream, else
  /// bytes read.  Error mapping as read_some.
  std::optional<std::size_t> try_read_some(MutableByteSpan out);

  /// Nonblocking single write attempt: nullopt when the send buffer is
  /// full, else bytes accepted (possibly fewer than data.size()).
  /// Honours the fault-injection kill-after-bytes budget exactly like
  /// write_all -- the metered path is what makes "kill the shared mux
  /// connection after N bytes" deterministic.
  std::optional<std::size_t> try_write_some(ByteSpan data);

  /// The raw descriptor, for epoll registration.  -1 when closed.
  int fd() const { return fd_; }

 private:
  void write_metered(ByteSpan data);

  int fd_ = -1;
  /// Fault-injection byte budget: >= 0 means the socket hard-resets once
  /// this many more bytes have been sent (-1 = disarmed).
  std::int64_t kill_after_ = -1;
};

/// Socket::connect wrapped in fault::with_retry: transient NetErrors are
/// retried with the policy's backoff, each attempt bounded by
/// policy.connect_timeout.
Socket connect_with_retry(const std::string& host, std::uint16_t port,
                          const fault::RetryPolicy& policy = {});

/// A listening TCP socket.  Binds to all interfaces; port 0 picks an
/// ephemeral port (the usual case for automatically established channels).
class ServerSocket {
 public:
  explicit ServerSocket(std::uint16_t port = 0);
  ~ServerSocket() { close(); }

  ServerSocket(const ServerSocket&) = delete;
  ServerSocket& operator=(const ServerSocket&) = delete;

  /// Blocks for the next connection.  Throws NetError if the socket is
  /// closed while waiting (the accept loop's shutdown path).
  Socket accept();

  std::uint16_t port() const { return port_; }

  void close();

 private:
  /// Atomic because close() races with a blocked accept(): the accept
  /// loop thread reads the descriptor while the owner shuts it down.
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace dpn::net
