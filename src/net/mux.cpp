#include "net/mux.hpp"

#include <sys/epoll.h>

#include <array>
#include <atomic>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "net/reactor.hpp"
#include "obs/flight.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "sched/waiters.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace dpn::net {
namespace {

// ---------------------------------------------------------------------------
// Wire constants (docs/PROTOCOLS.md Section 8).

constexpr std::uint32_t kMuxMagic = 0x44504E4D;  // 'DPNM'
constexpr std::uint8_t kMuxVersion = 1;
constexpr std::size_t kPrefaceSize = 9;  // magic:u32 version:u8 window:u32
constexpr std::size_t kHeaderSize = 9;   // stream:u32 type:u8 length:u32
/// Upper bound on a peer's advertised frame length: anything larger is a
/// corrupt or hostile stream, not flow control (chunks are cut at
/// coalesce_bytes, far below this).
constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 24;
/// An accepted connection must deliver its preface within this budget or
/// the timer wheel kills it -- half-open connections die by deadline,
/// never hang (the PR 3 rule, enforced by the acceptor's EventLoop timer).
constexpr std::chrono::milliseconds kHandshakeTimeout{10000};
/// An orphaned connection (see MuxConnection::orphan) that has sent its
/// last byte and half-closed waits this long for the peer to close its
/// end, then closes anyway.
constexpr std::chrono::milliseconds kFinishTimeout{10000};
/// One flush gathers queued frames into a batch of about this many bytes
/// and hands the whole batch to the socket in one write.
constexpr std::size_t kFlushBatchBytes = 64 * 1024;

enum class MuxFrame : std::uint8_t {
  kOpen = 0,
  kData = 1,
  kDataTraced = 2,
  kCredit = 3,
  kFin = 4,
  kRst = 5,
};

void append_u32(ByteVector& out, std::uint32_t v) {
  std::uint8_t buf[4];
  put_u32(buf, v);
  out.insert(out.end(), buf, buf + 4);
}

void append_header(ByteVector& out, std::uint32_t stream_id, MuxFrame type,
                   std::uint32_t length) {
  append_u32(out, stream_id);
  out.push_back(static_cast<std::uint8_t>(type));
  append_u32(out, length);
}

ByteVector encode_preface(std::uint32_t default_window) {
  ByteVector out;
  out.reserve(kPrefaceSize);
  append_u32(out, kMuxMagic);
  out.push_back(kMuxVersion);
  append_u32(out, default_window);
  return out;
}

// ---------------------------------------------------------------------------
// Process-wide counters (read by mux_stats()/NetworkSnapshot).  Multi-writer
// paths, so plain fetch_add -- the single-writer bump() idiom does not
// apply here; the loop threads bump the flush counters once per batch.

struct MuxCounters {
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> streams_active{0};
  std::atomic<std::uint64_t> streams_total{0};
  std::atomic<std::uint64_t> credit_stalls{0};
  std::atomic<std::uint64_t> credit_stall_ns{0};
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> credit_frames_sent{0};
  std::atomic<std::uint64_t> socket_writes{0};
  std::atomic<std::uint64_t> ready_marks{0};
};

MuxCounters& counters() {
  static MuxCounters c;
  return c;
}

class MuxConnection;
class MuxListener;
class MuxTransport;

// ---------------------------------------------------------------------------
// MuxStream: one logical bidirectional stream over a shared connection.
//
// Lock discipline (deadlock-free by ordering):
//   * user threads:   stream.mutex_  ->  connection.send_mutex_
//   * loop dispatch:  connection.table_mutex_ released BEFORE stream.mutex_
//   * loop flusher:   connection.send_mutex_ released BEFORE stream.mutex_
// and no stream method calls into the connection while holding mutex_
// when the call could re-enter a stream lock (mark_ready/enqueue_* are
// called after unlocking).
//
// Ready ring: `queued_` (under mutex_) is set by the append that finds the
// stream idle, which then marks it ready; take_chunk clears it when it
// empties the send queue or finds it empty.  So a stream sits in the ring
// at most once, and a write to an already-queued stream only appends.

class MuxStream final : public Stream,
                        public std::enable_shared_from_this<MuxStream> {
 public:
  /// One outbound unit: bytes already approved against the send window,
  /// waiting for the flusher.  `fin` chunks carry no bytes and serialize
  /// as a FIN frame, which is how FIN stays ordered after the data.
  struct Chunk {
    ByteVector bytes;
    obs::TraceContext ctx;
    bool traced = false;
    bool fin = false;
  };

  MuxStream(std::shared_ptr<MuxConnection> conn, std::uint32_t id,
            std::size_t send_window, std::size_t recv_window,
            std::size_t coalesce);
  ~MuxStream() override;

  // Stream interface -------------------------------------------------------
  std::size_t read_some(MutableByteSpan out) override;
  std::size_t read_in_place(ParseFn parse, bool wait) override;
  void write_all(ByteSpan data) override { write_vectored(data, {}); }
  void write_vectored(ByteSpan a, ByteSpan b) override;
  void set_wait_observer(WaitObserver* observer) override {
    std::scoped_lock lock{mutex_};
    observer_ = observer;
  }
  bool wait_readable(std::chrono::milliseconds timeout) override;
  void shutdown_write() override;
  void shutdown_read() override;
  // A mux RST is scoped to this logical stream's receive direction: our
  // queued outbound chunks and FIN still flush in order, so abandoning
  // the read side is safe here (and unparks a peer stalled mid-grant on
  // this direction's credit window).
  void abandon_read() override { shutdown_read(); }
  void close() override {
    // Same shape as SocketStream::close: both half-closes, idempotent.
    shutdown_read();
    shutdown_write();
  }
  std::string peer_description() const override;

  // Loop-side entry points (called by MuxConnection with no locks held).
  void on_data(ByteSpan payload, const obs::TraceContext* ctx);
  void on_credit(std::uint32_t bytes);
  void on_fin();
  void on_rst();
  void on_connection_dead(const std::string& why);

  // Flusher side: pops the next approved chunk; `more` reports whether
  // the stream should stay in the ready ring.
  bool take_chunk(Chunk& out, bool& more);

  std::uint32_t id() const { return id_; }

 private:
  /// One inbound frame's payload, consumed front-to-back; `eof` marks the
  /// peer's FIN (or connection death), ordered after all data.
  struct InSeg {
    ByteVector bytes;
    std::size_t pos = 0;
    obs::TraceContext ctx;
    bool traced = false;
    bool eof = false;
  };

  /// Removes the stream from the connection's table once both directions
  /// are finished (no lock held on entry).
  void maybe_retire();

  /// Parks the caller on `waiters` once, telling the observer.
  void park_locked(std::unique_lock<std::mutex>& lock,
                   sched::Waiters& waiters, const sched::WaitTag& tag);
  /// Waits for inbound bytes; false at end-of-stream or after
  /// shutdown_read, NetError if the connection died before our FIN.
  bool await_inbound_locked(std::unique_lock<std::mutex>& lock);
  /// Consumes `n` bytes of the front segment; returns the credit to grant.
  std::size_t consume_front_locked(std::size_t n);
  /// Waits out an exhausted send window (a credit stall).
  void stall_locked(std::unique_lock<std::mutex>& lock);
  /// Queues window-approved bytes, coalescing untraced writes; `open` is
  /// the chunk this write is filling (null: none yet).
  void append_locked(ByteSpan data, bool traced, Chunk*& open);

  std::shared_ptr<MuxConnection> conn_;
  const std::uint32_t id_;
  const std::size_t recv_window_;
  const std::size_t coalesce_;

  mutable std::mutex mutex_;
  sched::Waiters readers_;  // inbound bytes, FIN or death
  sched::Waiters writers_;  // send window, RST or death

  // Inbound (loop thread appends, reader consumes).
  std::deque<InSeg> inbound_;
  std::size_t inbound_bytes_ = 0;
  /// Bytes consumed but not yet granted back to the peer.
  std::size_t unacked_ = 0;
  bool remote_fin_ = false;
  bool read_shutdown_ = false;
  WaitObserver* observer_ = nullptr;

  // Outbound (writer appends under mutex_, flusher pops via take_chunk).
  std::deque<Chunk> pending_;
  bool queued_ = false;  // in the ready ring, or about to be marked
  std::int64_t send_window_;
  bool write_closed_ = false;  // FIN queued; further writes are a bug
  bool write_broken_ = false;  // peer RST: writes throw ChannelClosed
  bool dead_ = false;          // connection died under us
  bool retired_ = false;
  std::string death_reason_;
};

// ---------------------------------------------------------------------------
// MuxConnection: one shared TCP connection, registered with the EventLoop.

class MuxConnection final : public EventLoop::Handler,
                            public std::enable_shared_from_this<MuxConnection> {
 public:
  MuxConnection(MuxTransport& transport, EventLoop& loop,
                std::shared_ptr<Socket> socket, bool dialer, std::string peer,
                std::weak_ptr<MuxListener> listener)
      : transport_(transport),
        loop_(loop),
        socket_(std::move(socket)),
        dialer_(dialer),
        peer_(std::move(peer)),
        listener_(std::move(listener)) {}

  /// Dialer side: preface already exchanged synchronously; `peer_window`
  /// is the acceptor's preface default_window.
  void start_dialer(std::size_t peer_window);
  /// Acceptor side: registers and arms the handshake deadline; the
  /// dialer's preface arrives through the loop.
  void start_acceptor();

  /// Dialer only: allocates a stream id, registers the stream and queues
  /// its OPEN frame.  `open_window` is the credit granted to the peer.
  std::shared_ptr<MuxStream> open_stream(std::size_t open_window,
                                         std::size_t coalesce);

  void on_io(std::uint32_t events) override;

  // Stream-side entry points (no stream lock may be held by the caller).
  void mark_ready(std::shared_ptr<MuxStream> stream);
  void enqueue_credit(std::uint32_t stream_id, std::size_t bytes);
  void enqueue_rst(std::uint32_t stream_id);
  void note_stream_closed(std::uint32_t stream_id);

  /// The listener that accepted this connection closed, so no stream can
  /// open on it again: once its last stream closes, it sends what is
  /// queued, half-closes, and dies when the peer closes its end -- or
  /// after kFinishTimeout.  Any thread.
  void orphan();

  bool dead() const { return dead_.load(std::memory_order_acquire); }
  const std::string& peer() const { return peer_; }
  EventLoop& loop() { return loop_; }

 private:
  void register_with_loop();
  void request_flush();
  void post_flush();
  void flush();            // loop thread
  void fill_batch();       // loop thread: refills out_buf_ from the queues
  void handle_readable();  // loop thread
  void parse_frames();     // loop thread
  void dispatch_frame(std::uint32_t stream_id, MuxFrame type, ByteSpan payload);
  void die(const std::string& why);  // loop thread
  void finish_if_idle();             // loop thread

  void push_control(ByteVector frame);

  MuxTransport& transport_;
  EventLoop& loop_;
  std::shared_ptr<Socket> socket_;
  const bool dialer_;
  const std::string peer_;
  std::weak_ptr<MuxListener> listener_;

  std::mutex table_mutex_;
  std::unordered_map<std::uint32_t, std::shared_ptr<MuxStream>> streams_;
  std::uint32_t next_stream_id_ = 1;
  std::atomic<bool> dead_{false};
  std::atomic<bool> orphaned_{false};
  /// Peer's preface default_window: the initial send window of every
  /// dialer-opened stream (meaningful on the dialer side only).
  std::size_t peer_default_window_ = 0;

  // Send queue (send_mutex_): tiny control frames jump ahead of data; the
  // ready ring round-robins streams so one hot channel cannot starve its
  // siblings on the shared connection.
  std::mutex send_mutex_;
  std::deque<ByteVector> control_;
  std::deque<std::shared_ptr<MuxStream>> ready_;
  bool flush_scheduled_ = false;

  // Loop-thread-only I/O state.
  ByteVector out_buf_;
  std::size_t out_pos_ = 0;
  bool can_write_ = true;
  ByteVector in_buf_;
  bool preface_done_ = false;
  bool finishing_ = false;  // orphaned and idle: half-close once flushed
  bool write_shut_ = false;
  /// The handshake's deadline, and later an orphan's finish deadline.
  EventLoop::TimerId deadline_timer_ = 0;
};

// ---------------------------------------------------------------------------
// MuxListener: blocking accept loop feeding the loop-side handshakes.

class MuxListener final : public Listener,
                          public std::enable_shared_from_this<MuxListener> {
 public:
  MuxListener(MuxTransport& transport, std::uint16_t port);
  ~MuxListener() override { close(); }

  std::shared_ptr<Stream> accept() override;
  std::uint16_t port() const override { return server_.port(); }
  void close() override;
  bool closed() const override { return server_.closed(); }

  /// Called by connection dispatch when the peer OPENs a stream.
  void deliver(std::shared_ptr<Stream> stream);

  /// Arms the accept loop; must run after the listener is owned by a
  /// shared_ptr (the loop hands connections weak_from_this()).
  void start();

 private:
  void accept_loop(const std::stop_token& stop);

  MuxTransport& transport_;
  ServerSocket server_;

  std::mutex mutex_;
  sched::Waiters waiters_;  // accept() callers and the unstarted loop
  std::deque<std::shared_ptr<Stream>> pending_;
  // What close() orphans: no stream can open on these once it has run.
  std::vector<std::weak_ptr<MuxConnection>> accepted_;
  bool started_ = false;
  bool closed_ = false;

  std::jthread acceptor_;
};

// ---------------------------------------------------------------------------
// MuxTransport: the backend singleton -- owns the dial cache (one
// connection per dialed host:port) and the keep-alive registry for
// accepted connections.  Connections are driven by the process-wide
// per-core reactor() pool: each connection is assigned one loop
// round-robin at establishment and keeps it for life, so one hot
// connection cannot serialize every other connection's reactor work.

class MuxTransport final : public Transport {
 public:
  MuxTransport()
      : stream_window_(network_options().stream_window),
        coalesce_(network_options().coalesce_bytes) {}

  TransportKind kind() const override { return TransportKind::kMux; }

  std::shared_ptr<Stream> dial(const std::string& host, std::uint16_t port,
                               const DialOptions& options) override;
  std::shared_ptr<Listener> listen(std::uint16_t port) override;

  /// The reactor loop the next established connection is pinned to.
  EventLoop& next_loop() { return reactor().next(); }
  std::size_t stream_window() const { return stream_window_; }
  std::size_t coalesce() const { return coalesce_; }

  /// Keeps an accepted connection alive while it is registered with the
  /// loop (the loop holds only a raw Handler*).
  void adopt(std::shared_ptr<MuxConnection> conn);
  /// Drops a dead connection from the registry and the dial cache, so the
  /// next dial to that host establishes a fresh connection.
  void forget(const std::shared_ptr<MuxConnection>& conn);

 private:
  std::shared_ptr<MuxConnection> establish(const std::string& host,
                                           std::uint16_t port,
                                           std::chrono::milliseconds timeout);

  const std::size_t stream_window_;
  const std::size_t coalesce_;

  /// Guards dial_locks_ only -- never held across I/O.
  std::mutex dial_mutex_;
  /// One establishment lock per host:port, so a slow or unreachable host
  /// cannot head-of-line-block dials to healthy hosts.  Entries are never
  /// erased: bounded by the number of distinct peers ever dialed.
  std::map<std::pair<std::string, std::uint16_t>, std::shared_ptr<std::mutex>>
      dial_locks_;
  std::mutex conns_mutex_;
  std::map<std::pair<std::string, std::uint16_t>,
           std::shared_ptr<MuxConnection>>
      dialed_;
  std::unordered_set<std::shared_ptr<MuxConnection>> all_;
};

/// Streams are handed out behind a close-on-last-ref wrapper, mirroring
/// how the blocking backend's descriptor closes when the last
/// shared_ptr<Socket> drops: a caller that forgets close() cannot leak a
/// table entry forever.
std::shared_ptr<Stream> public_handle(std::shared_ptr<MuxStream> stream) {
  Stream* raw = stream.get();
  return std::shared_ptr<Stream>(
      raw, [owned = std::move(stream)](Stream*) mutable { owned->close(); });
}

// ---------------------------------------------------------------------------
// MuxStream implementation.

MuxStream::MuxStream(std::shared_ptr<MuxConnection> conn, std::uint32_t id,
                     std::size_t send_window, std::size_t recv_window,
                     std::size_t coalesce)
    : conn_(std::move(conn)),
      id_(id),
      recv_window_(recv_window),
      coalesce_(coalesce == 0 ? 1 : coalesce),
      send_window_(static_cast<std::int64_t>(send_window)) {
  counters().streams_total.fetch_add(1, std::memory_order_relaxed);
  counters().streams_active.fetch_add(1, std::memory_order_relaxed);
}

MuxStream::~MuxStream() = default;

void MuxStream::park_locked(std::unique_lock<std::mutex>& lock,
                            sched::Waiters& waiters,
                            const sched::WaitTag& tag) {
  WaitObserver* const observer = observer_;
  if (observer != nullptr) observer->on_park();
  waiters.wait(lock, tag);
  if (observer != nullptr) observer->on_unpark();
}

bool MuxStream::await_inbound_locked(std::unique_lock<std::mutex>& lock) {
  for (;;) {
    if (read_shutdown_) return false;
    if (!inbound_.empty()) break;
    if (dead_) {  // defensive: death always queues an eof marker
      if (!remote_fin_) {
        throw NetError{"mux connection lost: " + death_reason_};
      }
      return false;
    }
    // A channel's reader names the channel, so a post-mortem shows a
    // consumer hung on a remote producer like one hung on a local pipe.
    const std::uint64_t channel =
        observer_ != nullptr ? observer_->flight_id() : 0;
    park_locked(lock, readers_,
                channel != 0 ? sched::WaitTag::reading(channel, 0)
                             : sched::WaitTag{});
  }
  if (inbound_.front().eof) {
    // A peer's FIN parks this marker with remote_fin_ set; a connection
    // that died under us parks one without.  The stream-level FIN frame
    // is the *only* graceful end of a mux stream -- a connection that
    // goes away first (RST, fault injection, protocol violation, or
    // even a clean TCP close) took this stream's producer with it, so
    // the loss must be loud, not a truncation dressed up as eof.
    if (dead_ && !remote_fin_) {
      throw NetError{"mux connection lost: " + death_reason_};
    }
    return false;  // marker stays: every later read is also at eof
  }
  return true;
}

std::size_t MuxStream::consume_front_locked(std::size_t n) {
  InSeg& front = inbound_.front();
  if (front.traced && front.ctx.valid()) {
    // Context propagation only: the consuming thread adopts the sender's
    // ambient context.  Span events stay the channel layer's job -- a
    // mux-level event pair here would double every flow arrow.
    obs::current_trace_context() = front.ctx;
  }
  front.pos += n;
  if (front.pos == front.bytes.size()) inbound_.pop_front();
  inbound_bytes_ -= n;
  unacked_ += n;
  // Grant credit at consumption, once half the window is consumed.  This
  // is live at any window, 1 byte included: a blocked sender has the
  // whole window outstanding, so once we have consumed it unacked_ equals
  // the window and crosses the threshold.
  if (dead_ || remote_fin_ ||
      unacked_ < std::max<std::size_t>(1, recv_window_ / 2)) {
    return 0;
  }
  return std::exchange(unacked_, 0);
}

std::size_t MuxStream::read_some(MutableByteSpan out) {
  if (out.empty()) return 0;
  std::unique_lock lock{mutex_};
  if (!await_inbound_locked(lock)) return 0;
  const InSeg& front = inbound_.front();
  const std::size_t n = std::min(out.size(), front.bytes.size() - front.pos);
  std::memcpy(out.data(), front.bytes.data() + front.pos, n);
  const std::size_t grant = consume_front_locked(n);
  lock.unlock();
  if (grant > 0) conn_->enqueue_credit(id_, grant);
  return n;
}

std::size_t MuxStream::read_in_place(ParseFn parse, bool wait) {
  std::unique_lock lock{mutex_};
  if (!wait && inbound_.empty() && !read_shutdown_ && !dead_) return 0;
  if (!await_inbound_locked(lock)) {
    parse({});
    return 0;
  }
  std::size_t taken = 0;
  std::size_t grant = 0;
  while (!inbound_.empty() && !inbound_.front().eof) {
    const InSeg& front = inbound_.front();
    const ByteSpan view{front.bytes.data() + front.pos,
                        front.bytes.size() - front.pos};
    const std::size_t n = parse(view);
    if (n == 0) break;
    taken += n;
    grant += consume_front_locked(n);
    if (n < view.size()) break;
  }
  lock.unlock();
  if (grant > 0) conn_->enqueue_credit(id_, grant);
  return taken;
}

void MuxStream::stall_locked(std::unique_lock<std::mutex>& lock) {
  // Credit stall: the peer has not consumed what we already sent.
  counters().credit_stalls.fetch_add(1, std::memory_order_relaxed);
  obs::flight_record(obs::FlightKind::kCreditStall, id_,
                     static_cast<std::uint64_t>(-send_window_));
  const auto stall_start = std::chrono::steady_clock::now();
  while (send_window_ <= 0 && !dead_ && !write_broken_ && !write_closed_) {
    park_locked(lock, writers_, {});
  }
  const auto stall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - stall_start)
          .count());
  obs::flight_record(obs::FlightKind::kCreditResume, id_, stall_ns);
  counters().credit_stall_ns.fetch_add(stall_ns, std::memory_order_relaxed);
}

void MuxStream::append_locked(ByteSpan data, bool traced, Chunk*& open) {
  while (!data.empty()) {
    if (open == nullptr || open->bytes.size() >= coalesce_) {
      Chunk* tail = pending_.empty() ? nullptr : &pending_.back();
      if (!traced && tail != nullptr && !tail->fin && !tail->traced &&
          tail->bytes.size() < coalesce_) {
        // Coalesce small untraced writes: the window was already claimed,
        // so merging buffers only reduces frame count.
        open = tail;
      } else {
        open = &pending_.emplace_back();
        if (traced) {
          open->traced = true;
          open->ctx = obs::current_trace_context();
        }
      }
    }
    const std::size_t n = std::min(data.size(), coalesce_ - open->bytes.size());
    open->bytes.insert(open->bytes.end(), data.begin(),
                       data.begin() + static_cast<std::ptrdiff_t>(n));
    data = data.subspan(n);
  }
}

void MuxStream::write_vectored(ByteSpan a, ByteSpan b) {
  const bool traced =
      obs::trace_enabled() && obs::current_trace_context().valid();
  Chunk* open = nullptr;
  bool mark = false;  // this write found the stream idle and queued it
  std::unique_lock lock{mutex_};
  for (ByteSpan part : {a, b}) {
    while (!part.empty()) {
      if (send_window_ <= 0 || dead_ || write_broken_ || write_closed_) {
        if (mark) {
          // What we queued must reach the flusher before we stall on the
          // credit it earns.  Outside mutex_: the flusher's take_chunk
          // locks it.
          mark = false;
          open = nullptr;
          lock.unlock();
          conn_->mark_ready(shared_from_this());
          lock.lock();
          continue;
        }
        if (dead_) {
          throw ChannelClosed{"mux connection lost: " + death_reason_};
        }
        if (write_broken_) throw ChannelClosed{};
        if (write_closed_) throw IoError{"write on closed mux stream"};
        stall_locked(lock);
        open = nullptr;  // the flusher may have taken it meanwhile
        continue;
      }
      const std::size_t take =
          std::min(part.size(), static_cast<std::size_t>(send_window_));
      send_window_ -= static_cast<std::int64_t>(take);
      append_locked(part.first(take), traced, open);
      part = part.subspan(take);
      if (!queued_) {
        queued_ = true;
        mark = true;
      }
    }
  }
  lock.unlock();
  if (mark) conn_->mark_ready(shared_from_this());
}

bool MuxStream::wait_readable(std::chrono::milliseconds timeout) {
  // RMI clients poll with lease.patience: on a fiber the deadline comes
  // from the event loop's timers, so the worker stays free meanwhile.
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock lock{mutex_};
  while (inbound_.empty() && !dead_ && !read_shutdown_) {
    if (!readers_.wait_until(lock, deadline)) {
      return !inbound_.empty() || dead_ || read_shutdown_;
    }
  }
  return true;
}

void MuxStream::shutdown_write() {
  bool mark = false;
  {
    std::unique_lock lock{mutex_};
    if (write_closed_) return;
    write_closed_ = true;
    writers_.wake_all();  // a concurrently stalled writer must throw
    if (!dead_) {
      pending_.emplace_back().fin = true;
      mark = !std::exchange(queued_, true);
    }
  }
  if (mark) conn_->mark_ready(shared_from_this());
  maybe_retire();
}

void MuxStream::shutdown_read() {
  bool send_rst = false;
  {
    std::unique_lock lock{mutex_};
    if (read_shutdown_) return;
    read_shutdown_ = true;
    inbound_.clear();
    inbound_bytes_ = 0;
    unacked_ = 0;
    readers_.wake_all();
    send_rst = !dead_ && !remote_fin_;
  }
  if (send_rst) conn_->enqueue_rst(id_);
  maybe_retire();
}

std::string MuxStream::peer_description() const {
  return conn_->peer() + "/mux#" + std::to_string(id_);
}

void MuxStream::on_data(ByteSpan payload, const obs::TraceContext* ctx) {
  std::unique_lock lock{mutex_};
  if (read_shutdown_ || dead_) return;  // already RST'd; drop in-flight data
  InSeg seg;
  seg.bytes.assign(payload.begin(), payload.end());
  if (ctx != nullptr) {
    seg.traced = true;
    seg.ctx = *ctx;
  }
  inbound_bytes_ += seg.bytes.size();
  inbound_.push_back(std::move(seg));
  readers_.wake_all();
}

void MuxStream::on_credit(std::uint32_t bytes) {
  std::unique_lock lock{mutex_};
  send_window_ += bytes;
  writers_.wake_all();
}

void MuxStream::on_fin() {
  {
    std::unique_lock lock{mutex_};
    if (remote_fin_ || dead_) return;
    obs::flight_record(obs::FlightKind::kNetFin, id_, inbound_bytes_);
    remote_fin_ = true;
    InSeg eof;
    eof.eof = true;
    inbound_.push_back(std::move(eof));
    readers_.wake_all();
  }
  maybe_retire();
}

void MuxStream::on_rst() {
  std::unique_lock lock{mutex_};
  obs::flight_record(obs::FlightKind::kNetRst, id_, pending_.size());
  write_broken_ = true;
  pending_.clear();  // the peer stopped reading; flushing more is waste
  writers_.wake_all();
}

void MuxStream::on_connection_dead(const std::string& why) {
  std::unique_lock lock{mutex_};
  if (dead_) return;
  dead_ = true;
  death_reason_ = why;
  pending_.clear();
  // Reads drain what already arrived; then a stream that never saw its
  // FIN throws NetError from read_some (producer lost mid-stream).
  InSeg eof;
  eof.eof = true;
  inbound_.push_back(std::move(eof));
  readers_.wake_all();
  writers_.wake_all();
}

bool MuxStream::take_chunk(Chunk& out, bool& more) {
  std::unique_lock lock{mutex_};
  if (pending_.empty()) {
    queued_ = false;
    more = false;
    return false;
  }
  out = std::move(pending_.front());
  pending_.pop_front();
  more = !pending_.empty();
  queued_ = more;
  return true;
}

void MuxStream::maybe_retire() {
  {
    std::unique_lock lock{mutex_};
    const bool read_done = read_shutdown_ || remote_fin_;
    if (!read_done || !write_closed_ || retired_ || dead_) return;
    retired_ = true;
  }
  conn_->note_stream_closed(id_);
}

// ---------------------------------------------------------------------------
// MuxConnection implementation.

void MuxConnection::start_dialer(std::size_t peer_window) {
  peer_default_window_ = peer_window;
  preface_done_ = true;  // exchanged synchronously by the dialing thread
  counters().connections.fetch_add(1, std::memory_order_relaxed);
  loop_.post([self = shared_from_this()] { self->register_with_loop(); });
}

void MuxConnection::start_acceptor() {
  counters().connections.fetch_add(1, std::memory_order_relaxed);
  loop_.post([self = shared_from_this()] {
    self->register_with_loop();
    if (self->dead()) return;
    if (!self->preface_done_) {
      self->deadline_timer_ = self->loop_.add_timer(kHandshakeTimeout, [self] {
        self->deadline_timer_ = 0;
        if (!self->preface_done_) self->die("mux preface timeout");
      });
    }
  });
}

void MuxConnection::register_with_loop() {
  if (dead()) return;
  try {
    loop_.add(socket_->fd(), this);
  } catch (const std::exception& e) {
    die(std::string{"epoll registration failed: "} + e.what());
    return;
  }
  // Edge-triggered: bytes that arrived before registration produce no
  // further edge, so probe both directions once.
  handle_readable();
  if (!dead()) flush();
}

std::shared_ptr<MuxStream> MuxConnection::open_stream(std::size_t open_window,
                                                      std::size_t coalesce) {
  std::shared_ptr<MuxStream> stream;
  {
    std::scoped_lock lock{table_mutex_};
    if (dead()) throw NetError{"mux connection to " + peer_ + " is down"};
    const std::uint32_t id = next_stream_id_++;
    stream = std::make_shared<MuxStream>(shared_from_this(), id,
                                         peer_default_window_, open_window,
                                         coalesce);
    streams_.emplace(id, stream);
  }
  ByteVector frame;
  append_header(frame, stream->id(), MuxFrame::kOpen, 4);
  append_u32(frame, static_cast<std::uint32_t>(
                        std::min<std::size_t>(open_window, UINT32_MAX)));
  push_control(std::move(frame));
  request_flush();
  return stream;
}

void MuxConnection::mark_ready(std::shared_ptr<MuxStream> stream) {
  bool post = false;
  {
    std::scoped_lock lock{send_mutex_};
    // After die() the ring stays empty: an entry would keep this dead
    // connection alive through the stream's reference back to it.
    if (dead()) return;
    ready_.push_back(std::move(stream));
    post = !std::exchange(flush_scheduled_, true);
  }
  counters().ready_marks.fetch_add(1, std::memory_order_relaxed);
  if (post) post_flush();
}

void MuxConnection::push_control(ByteVector frame) {
  std::scoped_lock lock{send_mutex_};
  control_.push_back(std::move(frame));
}

void MuxConnection::enqueue_credit(std::uint32_t stream_id, std::size_t bytes) {
  while (bytes > 0) {
    const std::uint32_t grant =
        static_cast<std::uint32_t>(std::min<std::size_t>(bytes, UINT32_MAX));
    ByteVector frame;
    append_header(frame, stream_id, MuxFrame::kCredit, 4);
    append_u32(frame, grant);
    push_control(std::move(frame));
    bytes -= grant;
  }
  request_flush();
}

void MuxConnection::enqueue_rst(std::uint32_t stream_id) {
  ByteVector frame;
  append_header(frame, stream_id, MuxFrame::kRst, 0);
  push_control(std::move(frame));
  request_flush();
}

void MuxConnection::note_stream_closed(std::uint32_t stream_id) {
  std::size_t erased = 0;
  bool idle = false;
  {
    std::scoped_lock lock{table_mutex_};
    erased = streams_.erase(stream_id);
    idle = streams_.empty();
  }
  if (erased > 0) {
    counters().streams_active.fetch_sub(1, std::memory_order_relaxed);
  }
  if (idle && orphaned_.load(std::memory_order_acquire)) {
    loop_.post([self = shared_from_this()] { self->finish_if_idle(); });
  }
}

void MuxConnection::orphan() {
  orphaned_.store(true, std::memory_order_release);
  loop_.post([self = shared_from_this()] { self->finish_if_idle(); });
}

void MuxConnection::finish_if_idle() {
  if (dead() || finishing_) return;
  {
    std::scoped_lock lock{table_mutex_};
    if (!streams_.empty()) return;
  }
  finishing_ = true;
  if (deadline_timer_ != 0) loop_.cancel_timer(deadline_timer_);
  deadline_timer_ = loop_.add_timer(kFinishTimeout, [self = shared_from_this()] {
    self->deadline_timer_ = 0;
    self->die("orphaned mux connection: peer did not close");
  });
  flush();
}

void MuxConnection::request_flush() {
  bool post = false;
  {
    std::scoped_lock lock{send_mutex_};
    post = !std::exchange(flush_scheduled_, true);
  }
  if (post) post_flush();
}

void MuxConnection::post_flush() {
  loop_.post([self = shared_from_this()] {
    {
      std::scoped_lock lock{self->send_mutex_};
      self->flush_scheduled_ = false;
    }
    self->flush();
  });
}

void MuxConnection::on_io(std::uint32_t events) {
  // die() drops the transport's references; without this one, a
  // connection no stream holds any more would be freed under our feet.
  const auto self = shared_from_this();
  if (dead()) return;
  if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP)) != 0) {
    handle_readable();
  }
  if (dead()) return;
  if ((events & EPOLLOUT) != 0) {
    can_write_ = true;
    flush();
  }
}

void MuxConnection::flush() {
  if (dead()) return;
  for (;;) {
    if (out_pos_ < out_buf_.size()) {
      if (!can_write_) return;  // awaiting the next EPOLLOUT edge
      std::optional<std::size_t> n;
      try {
        n = socket_->try_write_some(
            {out_buf_.data() + out_pos_, out_buf_.size() - out_pos_});
      } catch (const IoError& e) {
        die(e.what());
        return;
      }
      if (!n) {
        can_write_ = false;
        return;
      }
      counters().socket_writes.fetch_add(1, std::memory_order_relaxed);
      out_pos_ += *n;
      continue;
    }
    out_buf_.clear();
    out_pos_ = 0;
    fill_batch();
    if (out_buf_.empty()) {  // nothing left to send
      if (finishing_ && !std::exchange(write_shut_, true)) {
        // The peer reads everything sent, then end-of-file, and closes
        // its end; reading that end-of-file ends this side (die).
        socket_->shutdown_write();
      }
      return;
    }
  }
}

void MuxConnection::fill_batch() {
  // Every turn first takes all queued control frames -- credits and RSTs
  // are tiny and latency sensitive, and a stream's OPEN must precede its
  // first DATA -- then one chunk from the next ready stream: the
  // round-robin quantum that keeps the shared connection fair.
  std::uint64_t frames = 0;
  std::uint64_t credit_frames = 0;
  std::shared_ptr<MuxStream> requeue;
  for (;;) {
    std::shared_ptr<MuxStream> stream;
    {
      std::scoped_lock lock{send_mutex_};
      // Behind its siblings; take_chunk left it queued, so it is in the
      // ring nowhere else.
      if (requeue) ready_.push_back(std::move(requeue));
      for (const ByteVector& frame : control_) {
        if (static_cast<MuxFrame>(frame[4]) == MuxFrame::kCredit) {
          ++credit_frames;
        }
        out_buf_.insert(out_buf_.end(), frame.begin(), frame.end());
      }
      frames += control_.size();
      control_.clear();
      if (ready_.empty() || out_buf_.size() >= kFlushBatchBytes) break;
      stream = std::move(ready_.front());
      ready_.pop_front();
    }
    MuxStream::Chunk chunk;
    bool more = false;
    const bool got = stream->take_chunk(chunk, more);
    if (more) requeue = stream;
    if (!got) continue;
    ++frames;
    if (chunk.fin) {
      append_header(out_buf_, stream->id(), MuxFrame::kFin, 0);
    } else if (chunk.traced) {
      append_header(
          out_buf_, stream->id(), MuxFrame::kDataTraced,
          static_cast<std::uint32_t>(chunk.bytes.size() +
                                     obs::TraceContext::kWireSize));
      std::uint8_t ctx[obs::TraceContext::kWireSize];
      chunk.ctx.encode(ctx);
      out_buf_.insert(out_buf_.end(), ctx, ctx + sizeof ctx);
      out_buf_.insert(out_buf_.end(), chunk.bytes.begin(), chunk.bytes.end());
    } else {
      append_header(out_buf_, stream->id(), MuxFrame::kData,
                    static_cast<std::uint32_t>(chunk.bytes.size()));
      out_buf_.insert(out_buf_.end(), chunk.bytes.begin(), chunk.bytes.end());
    }
  }
  if (frames > 0) {
    counters().frames_sent.fetch_add(frames, std::memory_order_relaxed);
  }
  if (credit_frames > 0) {
    counters().credit_frames_sent.fetch_add(credit_frames,
                                            std::memory_order_relaxed);
  }
}

void MuxConnection::handle_readable() {
  if (dead()) return;
  std::array<std::uint8_t, 64 * 1024> scratch;
  for (;;) {
    std::optional<std::size_t> n;
    try {
      n = socket_->try_read_some({scratch.data(), scratch.size()});
    } catch (const IoError& e) {
      die(e.what());
      return;
    }
    if (!n) return;  // drained to EAGAIN (edge-triggered requirement)
    if (*n == 0) {
      die("peer closed mux connection");
      return;
    }
    in_buf_.insert(in_buf_.end(), scratch.data(), scratch.data() + *n);
    parse_frames();
    if (dead()) return;
  }
}

void MuxConnection::parse_frames() {
  std::size_t pos = 0;
  if (!preface_done_) {
    if (in_buf_.size() < kPrefaceSize) return;
    if (get_u32(in_buf_.data()) != kMuxMagic || in_buf_[4] != kMuxVersion) {
      die("bad mux preface");
      return;
    }
    // The dialer's default_window is informational on this side: each
    // stream's real window arrives with its OPEN frame.
    preface_done_ = true;
    pos = kPrefaceSize;
    if (deadline_timer_ != 0) {
      loop_.cancel_timer(deadline_timer_);
      deadline_timer_ = 0;
    }
  }
  while (in_buf_.size() - pos >= kHeaderSize) {
    const std::uint8_t* header = in_buf_.data() + pos;
    const std::uint32_t stream_id = get_u32(header);
    const std::uint8_t type = header[4];
    const std::size_t length = get_u32(header + 5);
    if (length > kMaxFrameBytes) {
      die("oversized mux frame");
      return;
    }
    if (in_buf_.size() - pos < kHeaderSize + length) break;
    dispatch_frame(stream_id, static_cast<MuxFrame>(type),
                   {in_buf_.data() + pos + kHeaderSize, length});
    if (dead()) return;
    pos += kHeaderSize + length;
  }
  in_buf_.erase(in_buf_.begin(),
                in_buf_.begin() + static_cast<std::ptrdiff_t>(pos));
}

void MuxConnection::dispatch_frame(std::uint32_t stream_id, MuxFrame type,
                                   ByteSpan payload) {
  if (type == MuxFrame::kOpen) {
    if (dialer_ || payload.size() != 4) {
      die("unexpected OPEN frame");
      return;
    }
    auto listener = listener_.lock();
    const std::size_t window = get_u32(payload.data());
    std::shared_ptr<MuxStream> stream;
    {
      std::scoped_lock lock{table_mutex_};
      if (streams_.count(stream_id) != 0) {
        die("duplicate mux stream id");
        return;
      }
      stream = std::make_shared<MuxStream>(shared_from_this(), stream_id,
                                           window, transport_.stream_window(),
                                           transport_.coalesce());
      streams_.emplace(stream_id, stream);
    }
    if (listener) {
      listener->deliver(public_handle(std::move(stream)));
    } else {
      // Listener gone: dropping the handle closes the stream, which RSTs
      // the dialer's writes -- the mux analogue of connection refused.
      public_handle(std::move(stream));
    }
    return;
  }
  std::shared_ptr<MuxStream> stream;
  {
    std::scoped_lock lock{table_mutex_};
    const auto it = streams_.find(stream_id);
    if (it != streams_.end()) stream = it->second;
  }
  if (!stream) {  // closed locally; in-flight frames drop harmlessly
    return;
  }
  switch (type) {
    case MuxFrame::kData:
      stream->on_data(payload, nullptr);
      return;
    case MuxFrame::kDataTraced: {
      if (payload.size() < obs::TraceContext::kWireSize) {
        die("short DATA_TRACED frame");
        return;
      }
      const obs::TraceContext ctx =
          obs::TraceContext::decode(payload.data());
      stream->on_data(payload.subspan(obs::TraceContext::kWireSize), &ctx);
      return;
    }
    case MuxFrame::kCredit:
      if (payload.size() != 4) {
        die("malformed CREDIT frame");
        return;
      }
      stream->on_credit(get_u32(payload.data()));
      return;
    case MuxFrame::kFin:
      stream->on_fin();
      return;
    case MuxFrame::kRst:
      stream->on_rst();
      return;
    case MuxFrame::kOpen:
      return;  // handled above
  }
  die("unknown mux frame type");
}

void MuxConnection::die(const std::string& why) {
  if (dead_.exchange(true, std::memory_order_acq_rel)) return;
  log::debug("mux connection ", peer_, " down: ", why);
  if (deadline_timer_ != 0) {
    loop_.cancel_timer(deadline_timer_);
    deadline_timer_ = 0;
  }
  loop_.remove(socket_->fd());
  socket_->close();
  std::unordered_map<std::uint32_t, std::shared_ptr<MuxStream>> orphans;
  {
    std::scoped_lock lock{table_mutex_};
    orphans.swap(streams_);
  }
  for (auto& [id, stream] : orphans) {
    stream->on_connection_dead(why);
    counters().streams_active.fetch_sub(1, std::memory_order_relaxed);
  }
  {
    std::scoped_lock lock{send_mutex_};
    control_.clear();
    ready_.clear();
  }
  counters().connections.fetch_sub(1, std::memory_order_relaxed);
  transport_.forget(shared_from_this());
}

// ---------------------------------------------------------------------------
// MuxListener implementation.

MuxListener::MuxListener(MuxTransport& transport, std::uint16_t port)
    : transport_(transport),
      server_(port),
      acceptor_([this](const std::stop_token& stop) { accept_loop(stop); }) {}

void MuxListener::start() {
  std::scoped_lock lock{mutex_};
  started_ = true;
  waiters_.wake_all();
}

void MuxListener::accept_loop(const std::stop_token& stop) {
  {
    // Shared ownership established; weak_from_this works.
    std::unique_lock lock{mutex_};
    while (!started_) waiters_.wait(lock);
  }
  while (!stop.stop_requested()) {
    Socket raw;
    try {
      raw = server_.accept();
    } catch (const NetError&) {
      break;  // listener closed
    }
    try {
      // Our preface goes out before the socket turns nonblocking: 9 bytes
      // always fit the send buffer, and the dialer is waiting for them.
      const ByteVector preface =
          encode_preface(static_cast<std::uint32_t>(std::min<std::size_t>(
              transport_.stream_window(), UINT32_MAX)));
      raw.write_all(preface);
    } catch (const IoError& e) {
      log::debug("mux accept: preface write failed: ", e.what());
      continue;
    }
    auto socket = std::make_shared<Socket>(std::move(raw));
    socket->set_nonblocking(true);
    std::string peer = socket->peer_description();
    auto conn = std::make_shared<MuxConnection>(
        transport_, transport_.next_loop(), std::move(socket),
        /*dialer=*/false, std::move(peer), weak_from_this());
    transport_.adopt(conn);
    conn->start_acceptor();
    bool orphan = false;
    {
      std::scoped_lock lock{mutex_};
      std::erase_if(accepted_, [](const auto& weak) { return weak.expired(); });
      accepted_.push_back(conn);
      orphan = closed_;
    }
    if (orphan) conn->orphan();
  }
}

std::shared_ptr<Stream> MuxListener::accept() {
  std::unique_lock lock{mutex_};
  while (!closed_ && pending_.empty()) waiters_.wait(lock);
  if (!pending_.empty()) {
    auto stream = std::move(pending_.front());
    pending_.pop_front();
    return stream;
  }
  throw NetError{"mux listener closed"};
}

void MuxListener::close() {
  server_.close();  // unblocks the accept loop
  std::deque<std::shared_ptr<Stream>> drop;
  std::vector<std::weak_ptr<MuxConnection>> accepted;
  {
    std::scoped_lock lock{mutex_};
    started_ = true;  // in case close() wins the race with start()
    const bool was_closed = std::exchange(closed_, true);
    waiters_.wake_all();
    if (was_closed) return;
    drop.swap(pending_);  // dropping the handles closes (RSTs) the streams
    accepted.swap(accepted_);
  }
  acceptor_.request_stop();
  // They exist only for this listener: each ends once its last stream does.
  for (const auto& weak : accepted) {
    if (auto conn = weak.lock()) conn->orphan();
  }
}

void MuxListener::deliver(std::shared_ptr<Stream> stream) {
  {
    std::scoped_lock lock{mutex_};
    if (closed_) return;  // handle drops; the stream closes itself
    pending_.push_back(std::move(stream));
    waiters_.wake_all();
  }
}

// ---------------------------------------------------------------------------
// MuxTransport implementation.

std::shared_ptr<Stream> MuxTransport::dial(const std::string& host,
                                           std::uint16_t port,
                                           const DialOptions& options) {
  const auto key = std::make_pair(host, port);
  // Establishment is serialized *per host:port*: two threads dialing the
  // same host must not race a duplicate connection into the epoll handler
  // table, but establish() blocks for up to the connect timeout, so dials
  // to different hosts must not queue behind one unreachable peer.
  // forget() takes neither dial lock, so a dying connection cannot
  // deadlock against a dial in flight.
  std::shared_ptr<std::mutex> key_mutex;
  {
    std::scoped_lock lock{dial_mutex_};
    auto& slot = dial_locks_[key];
    if (!slot) slot = std::make_shared<std::mutex>();
    key_mutex = slot;
  }
  std::shared_ptr<MuxConnection> conn;
  {
    std::scoped_lock dial_lock{*key_mutex};
    {
      std::scoped_lock lock{conns_mutex_};
      const auto it = dialed_.find(key);
      if (it != dialed_.end() && !it->second->dead()) conn = it->second;
    }
    if (!conn) {
      conn = establish(host, port, options.timeout);
      obs::flight_record_named(obs::FlightKind::kNetDial, host, port);
      std::scoped_lock lock{conns_mutex_};
      dialed_[key] = conn;
      all_.insert(conn);
    }
  }
  const std::size_t window =
      options.stream_window != 0 ? options.stream_window : stream_window_;
  return public_handle(conn->open_stream(window, coalesce_));
}

std::shared_ptr<MuxConnection> MuxTransport::establish(
    const std::string& host, std::uint16_t port,
    std::chrono::milliseconds timeout) {
  Socket raw = Socket::connect(host, port, timeout);
  raw.write_all(encode_preface(static_cast<std::uint32_t>(
      std::min<std::size_t>(stream_window_, UINT32_MAX))));
  // Read the acceptor's preface synchronously: the dialer must know its
  // default send window before the first stream writes.
  std::uint8_t preface[kPrefaceSize];
  std::size_t got = 0;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (got < kPrefaceSize) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0 || !raw.wait_readable(remaining)) {
      throw NetError{"mux preface timeout dialing " + host + ":" +
                     std::to_string(port)};
    }
    const std::size_t n = raw.read_some({preface + got, kPrefaceSize - got});
    if (n == 0) {
      throw NetError{"mux connection closed during preface from " + host +
                     ":" + std::to_string(port)};
    }
    got += n;
  }
  if (get_u32(preface) != kMuxMagic || preface[4] != kMuxVersion) {
    throw NetError{"bad mux preface from " + host + ":" +
                   std::to_string(port) +
                   " (is the peer running the blocking transport?)"};
  }
  const std::size_t peer_window = get_u32(preface + 5);
  auto socket = std::make_shared<Socket>(std::move(raw));
  socket->set_nonblocking(true);
  auto conn = std::make_shared<MuxConnection>(
      *this, next_loop(), std::move(socket), /*dialer=*/true,
      host + ":" + std::to_string(port), std::weak_ptr<MuxListener>{});
  conn->start_dialer(peer_window);
  return conn;
}

std::shared_ptr<Listener> MuxTransport::listen(std::uint16_t port) {
  auto listener = std::make_shared<MuxListener>(*this, port);
  listener->start();
  return listener;
}

void MuxTransport::adopt(std::shared_ptr<MuxConnection> conn) {
  std::scoped_lock lock{conns_mutex_};
  all_.insert(std::move(conn));
}

void MuxTransport::forget(const std::shared_ptr<MuxConnection>& conn) {
  std::scoped_lock lock{conns_mutex_};
  all_.erase(conn);
  for (auto it = dialed_.begin(); it != dialed_.end(); ++it) {
    if (it->second == conn) {
      dialed_.erase(it);
      break;
    }
  }
}

}  // namespace

/// Registers mux_stats() as the snapshot transport-stats source.  Runs at
/// static init of this translation unit, which the linker pulls in for
/// every binary that touches a Transport (transport_for references
/// mux_transport); binaries that never do report zeros, correctly.
const bool g_snapshot_source_registered = [] {
  obs::set_transport_stats_source([]() -> obs::TransportStats {
    const MuxStats stats = mux_stats();
    obs::TransportStats out;
    out.mux_connections = stats.connections;
    out.mux_streams_active = stats.streams_active;
    out.mux_streams_total = stats.streams_total;
    out.mux_credit_stalls = stats.credit_stalls;
    out.mux_credit_stall_ns = stats.credit_stall_ns;
    return out;
  });
  return true;
}();

MuxStats mux_stats() {
  MuxStats stats;
  stats.connections = counters().connections.load(std::memory_order_relaxed);
  stats.streams_active =
      counters().streams_active.load(std::memory_order_relaxed);
  stats.streams_total =
      counters().streams_total.load(std::memory_order_relaxed);
  stats.credit_stalls =
      counters().credit_stalls.load(std::memory_order_relaxed);
  stats.credit_stall_ns =
      counters().credit_stall_ns.load(std::memory_order_relaxed);
  stats.frames_sent = counters().frames_sent.load(std::memory_order_relaxed);
  stats.credit_frames_sent =
      counters().credit_frames_sent.load(std::memory_order_relaxed);
  stats.socket_writes =
      counters().socket_writes.load(std::memory_order_relaxed);
  stats.ready_marks = counters().ready_marks.load(std::memory_order_relaxed);
  return stats;
}

Transport& mux_transport() {
  // Leaked on purpose (matches the blocking singleton and the reactor
  // pool): loop threads must not be torn down by static destruction
  // order.
  static MuxTransport* transport = new MuxTransport;
  return *transport;
}

}  // namespace dpn::net
