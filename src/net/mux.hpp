#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "fault/fault.hpp"
#include "io/byte_ring.hpp"
#include "io/stream.hpp"
#include "net/socket.hpp"
#include "obs/flight.hpp"
#include "sched/waiters.hpp"
#include "support/bytes.hpp"

/// The transport: every wire conversation in dpn -- remote channel
/// segments, rendezvous handshakes, compute-server and registry requests
/// -- runs over a mux Stream obtained from dial() or Listener::accept(),
/// never over a raw Socket.
///
/// All logical streams between one pair of hosts share ONE TCP
/// connection, driven by the per-core edge-triggered EventLoop pool
/// (net/reactor.hpp): each connection is pinned to one loop of the pool
/// at establishment (round-robin), its timers and posts stay
/// loop-local, and separate connections scale across cores instead of
/// serializing behind a single reactor thread.  Connection count is
/// O(host pairs), not O(channels): 50k channels between two nodes cost
/// two descriptors, one per direction of dialing.  A stream's window is
/// its only flow control: a remote channel is bounded by it.
///
/// Wire format (docs/PROTOCOLS.md Section 8).  Each side sends a preface
/// immediately after connect:
///
///   preface := magic:u32 'DPNM' version:u8 (= 2)
///
/// then the connection carries frames:
///
///   frame := stream_id:u32 type:u8 length:u32 payload[length]
///
///   OPEN(0)        payload = window:u32 -- dialer opens stream_id; each
///                  side may send `window` bytes before the other grants
///   DATA(1)        payload = stream bytes (counted against the window)
///   DATA_TRACED(2) payload = TraceContext(17B) + stream bytes; the
///                  context bytes are NOT counted against the window
///   CREDIT(3)      payload = bytes:u32 -- receiver consumed, send more
///   FIN(4)         payload = end message (<= 1 KiB, may be empty):
///                  sender finished writing (ordered after its data)
///   RST(5)         sender stopped reading; peer writes fail
///
/// Stream ids are allocated by the dialer only, so the two directions of
/// dialing between a host pair can never collide.  The dialer picks the
/// stream's window (DialOptions::stream_window) for both directions.
/// Credit is granted by the consuming side as it reads, once half the
/// window has been consumed: a blocked sender has the whole window
/// outstanding, so the reader always reaches the threshold, even at a
/// 1-byte window.  A receiver may also grant window beyond consumption
/// (Stream::grant_window), raising its own bound first.
///
/// Fairness and batching: only the connection's loop thread writes the
/// socket.  Each stream direction is a lock-free byte ring with one
/// producer and one consumer, bounded by its credit window.  A stream
/// joins its connection's ready ring once per pending batch: the write
/// that finds it idle marks it ready, and later writes only append to
/// its send ring until the flusher has drained it.  A flush gathers
/// every queued control frame, then one DATA frame (<= kFlushQuantum,
/// encoded straight from the send ring) per ready stream per round-robin
/// turn, up to about 64 KiB, and sends the batch with one write.  One
/// hot stream cannot starve its siblings on the shared connection.  DATA
/// past a stream's receive window kills the connection.
namespace dpn::net {

/// A stream's window when the dial names none (DialOptions::stream_window).
constexpr std::size_t kStreamWindow = std::size_t{256} << 10;
/// Round-robin flush quantum: the bytes one stream may put on the wire
/// per turn while its siblings wait (fairness granularity), and the
/// coalescing target for small writes.
constexpr std::size_t kFlushQuantum = std::size_t{16} << 10;

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

/// One shared TCP connection carrying many Streams (defined in mux.cpp).
class MuxConnection;

/// One logical bidirectional byte stream over a shared connection: reads
/// block for at least one byte and return 0 only at end-of-stream, writes
/// block on the stream's window and throw ChannelClosed once the peer
/// stopped reading, and the two directions shut down independently.
///
/// dial() and Listener::accept() hand streams out behind a close-on-drop
/// handle: dropping the last one closes the stream, while its connection
/// keeps the object alive until what it queued has flushed.
///
/// A steady-state token takes no lock.  Each direction is an io::ByteRing
/// with one producer and one consumer, whose bytes in flight the stream
/// windows bound: outbound, the stream's writer appends and the
/// connection's flusher (its loop thread) encodes DATA frames straight
/// from the ring; inbound, the loop thread appends DATA payloads and the
/// reader offers the ring's spans to its parser.  The callers keep
/// the Kahn rule of one reader and one writer per stream.  The state a
/// token needs rides in words it reads anyway:
///   * out_.tail carries kOutClosed (FIN requested): a write publishes
///     with a CAS, so a racing finish_with either follows the write's
///     bytes or fails the write with io::WriteStopped, counting the bytes
///     published before -- never a byte after the FIN;
///   * in_.tail carries kReadShut, kRemoteFin and kDead, ordered after
///     the data before them;
///   * credit_ (granted send window) carries kStop (peer RST or death).
/// mutex_ is taken only to park, to wake a sleeper, for traced frames, and
/// at a cut (shutdown, RST, FIN and its end message, connection death).
/// Parking is the sleeper handshake of sched::Sleepers, shared with
/// io::RingCore (io::Pipe, io::TypedRing): a parker counts itself and then
/// re-checks; a publisher moves its word and then reads the count.  The
/// stream keeps its own words rather than a RingCore (DESIGN.md section 6
/// item 3 names the states that differ).
///
/// Lock order (deadlock-free): user threads take stream.mutex_ and
/// connection.send_mutex_ never together; loop dispatch releases
/// connection.table_mutex_ before any stream call; the flusher releases
/// connection.send_mutex_ before flush_into, which takes only mutex_.
///
/// Ready ring: `queued_` is set by whoever finds the stream idle after
/// publishing (a write, or shutdown_write), which then marks it ready;
/// flush_into clears it once the ring is drained and re-checks the tail,
/// so a stream sits in the ring at most once and is never stranded.
class Stream : public std::enable_shared_from_this<Stream> {
 public:
  /// The longest end message finish_with sends (a FIN frame's payload).
  static constexpr std::size_t kMaxEndMessage = 1024;

  /// Made by `conn` only: the stream `id` whose window (the OPEN frame's)
  /// bounds both directions.
  Stream(std::shared_ptr<MuxConnection> conn, std::uint32_t id,
         std::size_t window);
  ~Stream();

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Reads up to out.size() bytes; 0 means the peer finished the stream.
  std::size_t read_some(MutableByteSpan out);

  /// Writes all bytes; throws ChannelClosed when the peer is gone,
  /// NetError on hard transport failure.
  void write_all(ByteSpan data) { write_vectored(data, {}); }

  /// Writes `a` then `b` as one unit without first copying them together.
  void write_vectored(ByteSpan a, ByteSpan b);

  /// Zero-copy receive.  Blocks like read_some until bytes or
  /// end-of-stream are pending, then offers `parse` the received bytes in
  /// order, one contiguous span at a time, and stops once it takes less
  /// than a whole span; what it takes is consumed.  At end-of-stream
  /// `parse` gets one empty span.  `parse` must take at least one byte of
  /// the first span and must not call back into the stream (the spans
  /// are the receive ring's storage, offered mid-read).  Returns the
  /// bytes consumed: 0 only at end-of-stream, or when `wait` is false and
  /// nothing is pending (then `parse` is not called).
  std::size_t read_in_place(ParseFn parse, bool wait);

  /// Installs (nullptr: removes) the observer of this stream's parks.
  /// The observer must outlive every wait it could be told about.
  void set_wait_observer(WaitObserver* observer);

  /// Blocks until a read would make progress (data, EOF or error pending)
  /// or the timeout elapses; false on timeout.
  bool wait_readable(std::chrono::milliseconds timeout);

  /// Half-close of the send direction: the peer reads EOF after the
  /// buffered bytes drain.
  void shutdown_write() { finish_with({}); }
  /// shutdown_write whose end of stream carries `message` (at most
  /// kMaxEndMessage bytes), delivered after every byte written before it;
  /// the peer reads it with end_message().
  void finish_with(ByteSpan message);
  /// The message the peer's end of stream carried: empty until a read
  /// returned end-of-stream, and when the peer sent none.
  ByteVector end_message() const;

  /// Half-close of the receive direction: local reads end, and the peer's
  /// writes fail with ChannelClosed (those parked on the window wake).
  /// Our own queued bytes and end of stream still reach the peer: the
  /// RST is scoped to this stream's receive direction.
  void shutdown_read();

  /// Grants the peer `bytes` more window than consumption returns, for
  /// good: the receive bound grows by as much before the grant leaves.
  /// Any thread.
  void grant_window(std::size_t bytes);
  /// Returns the window of every byte read so far to the peer now, rather
  /// than once half the window is read.  The reader's call.
  void return_window();

  /// Full close (both directions).  Idempotent.
  void close() {
    shutdown_read();
    shutdown_write();
  }

 private:
  friend class MuxConnection;

  static constexpr std::uint64_t kPosMask = io::ByteRing::kPosMask;
  // out_.tail: FIN requested, no write may follow.
  static constexpr std::uint64_t kOutClosed = std::uint64_t{1} << 63;
  // in_.tail: the local reader shut down; the peer's FIN arrived; the
  // connection died.  The last two are set by the loop after the data.
  static constexpr std::uint64_t kReadShut = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kRemoteFin = std::uint64_t{1} << 62;
  static constexpr std::uint64_t kDead = std::uint64_t{1} << 61;
  // credit_: writes fail (peer RST or connection death).
  static constexpr std::uint64_t kStop = std::uint64_t{1} << 63;

  /// The trace context of a DATA_TRACED frame's bytes [begin, end).
  struct TraceMark {
    std::uint64_t begin;
    std::uint64_t end;
    obs::TraceContext ctx;
  };

  // Loop-side entry points (called by the connection with no locks held).
  /// False when the payload overruns the receive window: the peer
  /// ignored flow control and the connection must die.
  bool on_data(ByteSpan payload, const obs::TraceContext* ctx);
  void on_credit(std::uint32_t bytes);
  void on_fin(ByteSpan message);
  void on_rst();
  void on_connection_dead(const std::string& why);

  /// Flusher: appends this stream's next DATA frame (at most kFlushQuantum
  /// bytes) to `out`, and its FIN once the data before it is out.
  /// Returns the frames appended; `more` reports whether the stream
  /// stays in the ready ring.
  std::uint64_t flush_into(ByteVector& out, bool& more);

  std::uint32_t id() const { return id_; }

  /// Removes the stream from the connection's table once both directions
  /// are finished (no lock held on entry).
  void maybe_retire();

  /// Reader slow path (ring empty, or read side shut).  Returns the tail
  /// once bytes are pending; returns `head` when there is nothing to
  /// read: at end-of-stream (`ended` set) or, with !wait, for now.
  /// NetError if the connection died before the peer's FIN.
  std::uint64_t await_inbound(std::uint64_t head, bool wait, bool& ended);
  /// Parks the reader until in_.tail moves off `head`; false when
  /// `deadline` (may be null) passed first.
  bool park_reader(std::uint64_t head,
                   const std::chrono::steady_clock::time_point* deadline);
  /// Waits on `waiters` with no deadline, telling the observer.
  void wait_observed(std::unique_lock<std::mutex>& lock,
                     sched::Waiters& waiters, const sched::WaitTag& tag);
  /// Reader: publishes consumption of [from, to), adopts its trace
  /// context, and grants credit once half the window is consumed.
  void consume(std::uint64_t from, std::uint64_t to);
  /// Reader: grants what it consumed since the last grant.
  void grant_consumed();
  void adopt_trace(std::uint64_t from, std::uint64_t to);

  /// Writer slow path (window exhausted, stopped or closed): false once
  /// the write side is finished; throws on RST or connection death;
  /// true once a retry may make progress.
  bool await_credit();
  /// Appends window-approved bytes and hands them to the flusher; false,
  /// publishing nothing, once the write side is finished.
  bool publish(ByteSpan a, ByteSpan b, bool traced);
  /// Whoever finds the stream idle after publishing queues it.
  void ensure_queued();

  std::shared_ptr<MuxConnection> conn_;
  const std::uint32_t id_;
  /// The window plus every grant_window: what the peer may have sent
  /// beyond what the reader granted back.  Raised before the grant's
  /// CREDIT leaves; the loop checks DATA against it.
  std::atomic<std::size_t> recv_window_;

  // Slow path: parking, cuts, traced frames and end messages.  Off the
  // line of the words above, which every token reads.
  alignas(64) mutable std::mutex mutex_;
  WaitObserver* observer_ = nullptr;
  std::string death_reason_;
  ByteVector out_end_;  // written before kOutClosed, sent with the FIN
  ByteVector in_end_;   // the peer's FIN message, before kRemoteFin
  bool retired_ = false;
  std::deque<TraceMark> out_marks_;
  std::deque<TraceMark> in_marks_;
  std::atomic<std::size_t> out_traced_{0};  // out_marks_.size()
  std::atomic<std::size_t> in_traced_{0};   // in_marks_.size()

  // Inbound: the loop thread appends, the reader consumes.
  io::ByteRing in_;
  std::size_t unacked_ = 0;  // reader: consumed, not yet granted
  // Inbound bytes, FIN, shutdown or death.  The count is read by the
  // loop per DATA frame, written at a park or a wake.
  alignas(64) sched::Sleepers readers_;
  /// CREDIT bytes granted back so far (reader writes, loop checks the
  /// window against it).
  std::atomic<std::uint64_t> credit_granted_{0};

  // Outbound: the writer appends, the flusher consumes.
  io::ByteRing out_;
  std::uint64_t sent_ = 0;  // writer: bytes appended
  /// Initial send window plus every CREDIT received (the loop adds), and
  /// kStop.  The window is credit_ - sent_.  Read by every write.
  alignas(64) std::atomic<std::uint64_t> credit_;
  sched::Sleepers writers_;  // send window, RST, shutdown or death
  // In the ready ring, or about to be: written by the flusher per visit,
  // read by every write.
  alignas(64) std::atomic<bool> queued_{false};
  bool fin_sent_ = false;  // flusher
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

 private:
  std::shared_ptr<Stream> stream_;
};

class Listener;

/// Binds a listening endpoint; port 0 picks an ephemeral port.
std::shared_ptr<Listener> listen(std::uint16_t port = 0);

/// An accepting endpoint: one bound port yielding inbound Streams, each a
/// logical stream a peer opened over a shared connection.  A blocking
/// accept thread hands each TCP connection to the reactor pool, whose
/// loop completes its handshake.
class Listener : public std::enable_shared_from_this<Listener> {
 public:
  ~Listener() { close(); }

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Blocks for the next inbound stream.  Throws NetError once the
  /// listener is closed (the accept loop's shutdown path).
  std::shared_ptr<Stream> accept();

  std::uint16_t port() const { return server_.port(); }

  /// Stops accepting; connections it accepted end once their last stream
  /// does.  Idempotent.
  void close();

 private:
  friend class MuxConnection;
  friend std::shared_ptr<Listener> listen(std::uint16_t port);

  explicit Listener(std::uint16_t port) : server_(port) {}

  /// Called by connection dispatch when the peer OPENs a stream.
  void deliver(std::shared_ptr<Stream> stream);
  void accept_loop(const std::stop_token& stop);

  ServerSocket server_;

  std::mutex mutex_;
  sched::Waiters waiters_;  // accept() callers
  std::deque<std::shared_ptr<Stream>> pending_;
  // What close() orphans: no stream can open on these once it has run.
  std::vector<std::weak_ptr<MuxConnection>> accepted_;
  bool closed_ = false;

  std::jthread acceptor_;
};

/// Per-dial tuning (all optional; zero means the default).
struct DialOptions {
  /// Bounds the connect and the preface exchange of a new connection,
  /// and a wait for one another dial is making.
  std::chrono::milliseconds timeout = Socket::kDefaultConnectTimeout;
  /// The stream's window in each direction: the bytes either side may
  /// send before the other's consumption grants more.  The dialer picks
  /// it; it travels in the OPEN frame.  0 = kStreamWindow.
  std::size_t stream_window = 0;
};

/// Opens a stream to host:port over the one shared connection to that
/// host:port (established on first use; concurrent dials share it).
/// Throws NetError on failure, on a bad or missing preface, or on
/// timeout.  The caller parks while the connection's loop does the
/// handshake: a fiber leaves its worker to others.
std::shared_ptr<Stream> dial(const std::string& host, std::uint16_t port,
                             const DialOptions& options = {});

/// dial() wrapped in fault::with_retry, recording the whole retry loop
/// into the connect-latency histogram.
std::shared_ptr<Stream> dial_with_retry(const std::string& host,
                                        std::uint16_t port,
                                        const fault::RetryPolicy& policy = {},
                                        std::size_t stream_window = 0);

/// Aggregate counters of the mux backend (all zero when it is unused).
/// Mirrored into NetworkSnapshot so dpn_top can show streams/connection.
struct MuxStats {
  /// Live mux connections (both dialed and accepted).
  std::uint64_t connections = 0;
  /// Logical streams currently open across all connections.
  std::uint64_t streams_active = 0;
  /// Logical streams ever opened.
  std::uint64_t streams_total = 0;
  /// Times a writer blocked with an exhausted per-stream credit window.
  std::uint64_t credit_stalls = 0;
  /// Total nanoseconds spent in those stalls.
  std::uint64_t credit_stall_ns = 0;
  /// Frames of every type put on the wire (not in NetworkSnapshot).
  std::uint64_t frames_sent = 0;
  /// Of those, CREDIT frames.
  std::uint64_t credit_frames_sent = 0;
  /// Socket writes the loop threads made to send them; one flush batches
  /// many frames into one write.
  std::uint64_t socket_writes = 0;
  /// Times a stream joined its connection's ready ring: once per pending
  /// batch, however many writes the batch gathers.
  std::uint64_t ready_marks = 0;
};

MuxStats mux_stats();

}  // namespace dpn::net
