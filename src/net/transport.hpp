#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "fault/fault.hpp"
#include "io/stream.hpp"
#include "net/socket.hpp"
#include "support/bytes.hpp"

/// The transport seam: every wire conversation in dpn -- remote channel
/// segments, rendezvous handshakes, compute-server and registry requests
/// -- runs over a `Stream` obtained from the process's `Transport`, never
/// over a raw Socket.  The one implementation is the mux backend
/// (net/mux.hpp): all streams to the same host:port share one TCP
/// connection, multiplexed as stream-id-tagged frames with per-stream
/// credit windows, driven by the per-core epoll reactor pool
/// (net/reactor.hpp).  Connection count is O(hosts), so 50k logical
/// channels do not need 50k descriptors.  A stream's window is its only
/// flow control: a remote channel is bounded by it (docs/PROTOCOLS.md
/// Section 8).
namespace dpn::net {

/// Told about every wait in which a Stream parks its caller: the receive
/// park and the credit-window stall.  Both calls run on the waiting
/// thread, under the stream's lock.
class WaitObserver {
 public:
  virtual void on_park() = 0;
  virtual void on_unpark() = 0;
  /// The flight-recorder id of the channel this stream carries (0: none);
  /// receive parks are tagged with it.
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

/// A bidirectional byte stream between two endpoints: reads block for at
/// least one byte and return 0 only at end-of-stream, writes block on the
/// stream's window and throw ChannelClosed once the peer stopped reading,
/// and the two directions shut down independently.
class Stream {
 public:
  virtual ~Stream() = default;

  /// Reads up to out.size() bytes; 0 means the peer finished the stream.
  virtual std::size_t read_some(MutableByteSpan out) = 0;

  /// Writes all bytes; throws ChannelClosed when the peer is gone,
  /// NetError on hard transport failure.
  virtual void write_all(ByteSpan data) = 0;

  /// Writes `a` then `b` as one unit without first copying them together.
  virtual void write_vectored(ByteSpan a, ByteSpan b) = 0;

  /// Zero-copy receive.  Blocks like read_some until bytes or
  /// end-of-stream are pending, then offers `parse` the received bytes in
  /// order, one contiguous span at a time, and stops once it takes less
  /// than a whole span; what it takes is consumed.  At end-of-stream
  /// `parse` gets one empty span.  `parse` must take at least one byte of
  /// the first span and must not call back into the stream (the spans
  /// are the receive ring's storage, offered mid-read).  Returns the
  /// bytes consumed: 0 only at end-of-stream, or when `wait` is false and
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
  /// shutdown_write whose end of stream carries `message` (at most
  /// kMaxEndMessage bytes), delivered after every byte written before it;
  /// the peer reads it with end_message().
  virtual void finish_with(ByteSpan message) = 0;
  /// The message the peer's end of stream carried: empty until a read
  /// returned end-of-stream, and when the peer sent none.
  virtual ByteVector end_message() const = 0;
  static constexpr std::size_t kMaxEndMessage = 1024;

  /// Half-close of the receive direction: local reads end, and the peer's
  /// writes fail with ChannelClosed (those parked on the window wake).
  /// Our own queued bytes and end of stream still reach the peer.
  virtual void shutdown_read() = 0;

  /// Grants the peer `bytes` more window than consumption returns, for
  /// good: the receive bound grows by as much before the grant leaves.
  /// Any thread.
  virtual void grant_window(std::size_t bytes) = 0;
  /// Returns the window of every byte read so far to the peer now, rather
  /// than once half the window is read.  The reader's call.
  virtual void return_window() = 0;

  /// Full close (both directions).  Idempotent.
  virtual void close() = 0;

  virtual std::string peer_description() const = 0;
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

/// An accepting endpoint: one bound port yielding inbound Streams, each a
/// logical stream a peer opened over a shared connection.
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

/// Per-dial tuning (all optional; zero means "transport default").
struct DialOptions {
  std::chrono::milliseconds timeout = Socket::kDefaultConnectTimeout;
  /// The stream's window in each direction: the bytes either side may
  /// send before the other's consumption grants more.  The dialer picks
  /// it; it travels in the OPEN frame.  0 = NetworkOptions::stream_window.
  std::size_t stream_window = 0;
};

/// Process-wide network configuration, adjustable in code before the
/// first transport use.
struct NetworkOptions {
  /// Default per-stream window (see DialOptions::stream_window).
  std::size_t stream_window = std::size_t{1} << 18;
  /// Round-robin flush quantum -- bytes one stream may put on the wire
  /// per turn while siblings wait (fairness granularity), and the
  /// coalescing target for small writes.
  std::size_t flush_quantum = std::size_t{16} << 10;
};

/// The mutable process-wide options.  Mutate before creating
/// listeners/nodes; the Transport captures them at first use.
NetworkOptions& network_options();

class Transport {
 public:
  virtual ~Transport() = default;

  /// Opens a stream to host:port over the one shared connection to that
  /// host:port (established on first use).  Throws NetError on failure or
  /// timeout.
  virtual std::shared_ptr<Stream> dial(const std::string& host,
                                       std::uint16_t port,
                                       const DialOptions& options = {}) = 0;

  /// Binds a listening endpoint; port 0 picks an ephemeral port.
  virtual std::shared_ptr<Listener> listen(std::uint16_t port = 0) = 0;
};

/// The process-wide Transport (the mux backend, constructed on first use).
Transport& default_transport();

/// Transport::dial wrapped in fault::with_retry, recording the whole
/// retry loop into the connect-latency histogram.
std::shared_ptr<Stream> dial_with_retry(Transport& transport,
                                        const std::string& host,
                                        std::uint16_t port,
                                        const fault::RetryPolicy& policy = {},
                                        std::size_t stream_window = 0);

}  // namespace dpn::net
