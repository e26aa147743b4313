#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "fault/fault.hpp"
#include "io/stream.hpp"
#include "net/socket.hpp"
#include "support/bytes.hpp"

/// The transport abstraction: every wire conversation in dpn -- remote
/// channel segments, rendezvous handshakes, compute-server and registry
/// requests -- runs over a `Stream` obtained from a `Transport`, never
/// over a raw Socket.  Two backends implement the interface:
///
///   * kMux      -- the event-loop backend (net/mux.hpp) and the
///     compiled-in DEFAULT: all streams to the same host:port share one
///     TCP connection, multiplexed as stream-id-tagged frames with
///     per-stream credit windows, driven by the per-core epoll reactor
///     pool (net/reactor.hpp).  Connection count is O(hosts), so 50k
///     logical channels do not need 50k descriptors.
///
///   * kBlocking -- the classic one-TCP-connection-per-stream backend
///     (DPN_TRANSPORT=blocking opts back into it): dial() is
///     Socket::connect, listen() wraps a ServerSocket, and every Stream
///     owns its own descriptor.  Simple and debuggable; its raw socket
///     waits are fiber-aware (they park on the reactor), so it composes
///     with the M:N scheduler too -- it just spends O(channels) fds.
///
/// The backend is selected process-wide via NetworkOptions::transport
/// (env: DPN_TRANSPORT=blocking|mux); both ends of a conversation must
/// agree, exactly like they must agree on the frame protocol version.
namespace dpn::net {

/// Told about every wait in which a Stream parks its caller: on the mux
/// backend the receive park and the credit-window stall; on the blocking
/// backend, which has no stream window, a read that finds nothing
/// pending.  Both calls run on the waiting thread (mux: under the
/// stream's lock).
class WaitObserver {
 public:
  virtual void on_park() = 0;
  virtual void on_unpark() = 0;
  /// The flight-recorder id of the channel this stream carries (0: none);
  /// the mux backend tags its receive parks with it.
  virtual std::uint64_t flight_id() const { return 0; }

 protected:
  ~WaitObserver() = default;
};

/// Non-owning reference to the parser a Stream::read_in_place call runs:
/// `std::size_t(ByteSpan)`, no allocation per call.
class ParseFn {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ParseFn>)
  ParseFn(F&& fn)  // NOLINT: implicit, like std::function_ref
      : object_(static_cast<void*>(&fn)),
        call_([](void* object, ByteSpan bytes) -> std::size_t {
          return (*static_cast<std::remove_reference_t<F>*>(object))(bytes);
        }) {}

  std::size_t operator()(ByteSpan bytes) const { return call_(object_, bytes); }

 private:
  void* object_;
  std::size_t (*call_)(void*, ByteSpan);
};

/// A bidirectional byte stream between two endpoints.  The semantics
/// mirror Socket (the blocking backend is a 1:1 wrapper): reads block for
/// at least one byte and return 0 only at end-of-stream, writes block for
/// flow control and throw ChannelClosed once the peer is gone, and the
/// two directions shut down independently.
class Stream {
 public:
  virtual ~Stream() = default;

  /// Reads up to out.size() bytes; 0 means the peer finished the stream.
  virtual std::size_t read_some(MutableByteSpan out) = 0;

  /// Writes all bytes; throws ChannelClosed when the peer is gone,
  /// NetError on hard transport failure.
  virtual void write_all(ByteSpan data) = 0;

  /// Writes `a` then `b` as one unit (frame header + payload) without
  /// first copying them together.
  virtual void write_vectored(ByteSpan a, ByteSpan b) = 0;

  /// Zero-copy receive for framing layers.  Blocks like read_some until
  /// bytes or end-of-stream are pending, then offers `parse` the received
  /// bytes in order, one contiguous span at a time, and stops once it
  /// takes less than a whole span (or sooner: a transport may offer just
  /// one span per call); what it takes is consumed.  At end-of-stream
  /// `parse` gets one empty span.  `parse` must take at least one byte of
  /// the first span and must not call back into the stream (mux offers
  /// spans of its receive ring in place, mid-read).  Returns the bytes
  /// consumed: 0 only at end-of-stream, or when `wait` is false and
  /// nothing is pending (then `parse` is not called).
  virtual std::size_t read_in_place(ParseFn parse, bool wait) = 0;

  /// Installs (nullptr: removes) the observer of this stream's parks.
  /// The observer must outlive every wait it could be told about.
  virtual void set_wait_observer(WaitObserver* observer) = 0;

  /// Blocks until a read would make progress (data, EOF or error pending)
  /// or the timeout elapses; false on timeout.
  virtual bool wait_readable(std::chrono::milliseconds timeout) = 0;

  /// Half-close of the send direction: the peer reads EOF after the
  /// buffered bytes drain.
  virtual void shutdown_write() = 0;
  /// Half-close of the receive direction: local reads end, the peer's
  /// next write fails with ChannelClosed.
  virtual void shutdown_read() = 0;

  /// "I will never read again, but everything I wrote must still be
  /// delivered."  Where the transport can fail the peer's future writes
  /// in this direction without endangering our own outbound bytes, it
  /// does (mux: a per-stream RST frame, which unparks a peer stalled on
  /// this direction's credit window); where it cannot, this is a no-op.
  /// The default no-op is correct for TCP-per-stream: a SHUT_RD socket
  /// answers later-arriving bytes with a connection-wide RST, which
  /// would destroy our undelivered tail and FIN along with the peer's
  /// void bytes.
  virtual void abandon_read() {}

  /// Full close (both directions).  Idempotent.
  virtual void close() = 0;

  virtual std::string peer_description() const = 0;
};

/// The blocking backend's Stream: one connected socket per stream.
class SocketStream final : public Stream {
 public:
  explicit SocketStream(std::shared_ptr<Socket> socket)
      : socket_(std::move(socket)) {}
  explicit SocketStream(Socket socket)
      : socket_(std::make_shared<Socket>(std::move(socket))) {}

  std::size_t read_some(MutableByteSpan out) override;
  void write_all(ByteSpan data) override { socket_->write_all(data); }
  void write_vectored(ByteSpan a, ByteSpan b) override {
    socket_->write_vectored(a, b);
  }
  std::size_t read_in_place(ParseFn parse, bool wait) override;
  void set_wait_observer(WaitObserver* observer) override {
    observer_.store(observer, std::memory_order_release);
  }
  bool wait_readable(std::chrono::milliseconds timeout) override {
    return spill_pos_ < spill_.size() || socket_->wait_readable(timeout);
  }
  void shutdown_write() override { socket_->shutdown_write(); }
  void shutdown_read() override { socket_->shutdown_read(); }
  void close() override {
    // Shutdown, not descriptor close: a concurrently blocked read on
    // another thread must wake instead of racing descriptor reuse.  The
    // fd is released when the last reference drops.
    socket_->shutdown_read();
    socket_->shutdown_write();
  }
  std::string peer_description() const override {
    return socket_->peer_description();
  }

  const std::shared_ptr<Socket>& socket() const { return socket_; }

 private:
  /// Reports a read that found nothing pending to the observer as a park.
  class ParkScope {
   public:
    explicit ParkScope(WaitObserver* observer) : observer_(observer) {
      if (observer_ != nullptr) observer_->on_park();
    }
    ~ParkScope() {
      if (observer_ != nullptr) observer_->on_unpark();
    }
    ParkScope(const ParkScope&) = delete;
    ParkScope& operator=(const ParkScope&) = delete;

   private:
    WaitObserver* const observer_;
  };

  void drop_spill(std::size_t n);

  std::shared_ptr<Socket> socket_;
  std::atomic<WaitObserver*> observer_{nullptr};
  // Bytes one receive brought in beyond what read_in_place's parser
  // took, served before the socket; no allocation while drained.
  ByteVector spill_;
  std::size_t spill_pos_ = 0;
};

/// InputStream adapter over a shared Stream (the receive direction).
class StreamInput final : public io::InputStream {
 public:
  explicit StreamInput(std::shared_ptr<Stream> stream)
      : stream_(std::move(stream)) {}

  std::size_t read_some(MutableByteSpan out) override {
    return stream_->read_some(out);
  }
  void close() override { stream_->shutdown_read(); }

  const std::shared_ptr<Stream>& stream() const { return stream_; }

 private:
  std::shared_ptr<Stream> stream_;
};

/// OutputStream adapter over a shared Stream (the send direction).
class StreamOutput final : public io::OutputStream {
 public:
  explicit StreamOutput(std::shared_ptr<Stream> stream)
      : stream_(std::move(stream)) {}

  void write(ByteSpan data) override { stream_->write_all(data); }
  void write_vectored(ByteSpan a, ByteSpan b) override {
    stream_->write_vectored(a, b);
  }
  void close() override { stream_->shutdown_write(); }

  const std::shared_ptr<Stream>& stream() const { return stream_; }

 private:
  std::shared_ptr<Stream> stream_;
};

/// An accepting endpoint: one bound port yielding inbound Streams.  On
/// the blocking backend every accept is a fresh TCP connection; on the
/// mux backend it is a logical stream opened over a shared connection.
class Listener {
 public:
  virtual ~Listener() = default;

  /// Blocks for the next inbound stream.  Throws NetError once the
  /// listener is closed (the accept loop's shutdown path).
  virtual std::shared_ptr<Stream> accept() = 0;

  virtual std::uint16_t port() const = 0;

  virtual void close() = 0;
  virtual bool closed() const = 0;
};

enum class TransportKind : std::uint8_t {
  kBlocking = 0,  // thread-per-connection, one socket per stream
  kMux = 1,       // event loop, one connection per host pair
};

const char* to_string(TransportKind kind);

/// Per-dial tuning (all optional; zero means "transport default").
struct DialOptions {
  std::chrono::milliseconds timeout = Socket::kDefaultConnectTimeout;
  /// Mux only: initial credit window granted to the *peer* for data it
  /// sends back on this stream (a consumer dialing a producer sizes the
  /// producer's window with this).  0 = NetworkOptions::stream_window.
  std::size_t stream_window = 0;
};

/// Process-wide network configuration, read once from the environment and
/// adjustable in code before the first transport use.
struct NetworkOptions {
  TransportKind transport = TransportKind::kMux;
  /// Mux: default per-stream credit window (bytes a peer may send on one
  /// logical stream before the receiver's consumption grants more).
  std::size_t stream_window = std::size_t{1} << 18;
  /// Mux: round-robin flush quantum -- bytes one stream may put on the
  /// wire per turn while siblings wait (fairness granularity), and the
  /// coalescing target for small writes.
  std::size_t coalesce_bytes = std::size_t{16} << 10;

  /// DPN_TRANSPORT=blocking|mux (unset or anything else: mux, the
  /// default; unknown values log a warning).
  static NetworkOptions from_env();
};

/// The mutable process-wide options (initialized from from_env()).
/// Mutate before creating listeners/nodes; a Transport already
/// constructed keeps the settings it captured.
NetworkOptions& network_options();

class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportKind kind() const = 0;

  /// Opens a stream to host:port.  On the mux backend this reuses (or
  /// establishes) the one shared connection to that host:port and opens a
  /// logical stream over it.  Throws NetError on failure or timeout.
  virtual std::shared_ptr<Stream> dial(const std::string& host,
                                       std::uint16_t port,
                                       const DialOptions& options = {}) = 0;

  /// Binds a listening endpoint; port 0 picks an ephemeral port.
  virtual std::shared_ptr<Listener> listen(std::uint16_t port = 0) = 0;
};

/// The process-wide Transport singleton of a given kind (constructed on
/// first use; the mux kind owns the process's EventLoop).
Transport& transport_for(TransportKind kind);

/// transport_for(network_options().transport): what call sites use unless
/// they have a reason to pin a backend.
Transport& default_transport();

/// Transport::dial wrapped in fault::with_retry, recording the whole
/// retry loop into the connect-latency histogram -- the Stream-level
/// successor of connect_with_retry.
std::shared_ptr<Stream> dial_with_retry(Transport& transport,
                                        const std::string& host,
                                        std::uint16_t port,
                                        const fault::RetryPolicy& policy = {},
                                        std::size_t stream_window = 0);

}  // namespace dpn::net
