#include "net/mux.hpp"

#include <sys/epoll.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "io/byte_ring.hpp"
#include "io/stream.hpp"
#include "net/event_loop.hpp"
#include "net/reactor.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "sched/waiters.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace dpn::net {
namespace {

// ---------------------------------------------------------------------------
// Wire constants (docs/PROTOCOLS.md Section 8).

constexpr std::uint32_t kMuxMagic = 0x44504E4D;  // 'DPNM'
constexpr std::uint8_t kMuxVersion = 2;
constexpr std::size_t kPrefaceSize = 5;  // magic:u32 version:u8
constexpr std::size_t kHeaderSize = 9;   // stream:u32 type:u8 length:u32
/// Upper bound on a peer's advertised frame length: anything larger is a
/// corrupt or hostile stream, not flow control (chunks are cut at
/// the flush quantum, far below this).
constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 24;
/// An accepted connection must deliver its preface within this budget or
/// the timer wheel kills it -- half-open connections die by deadline,
/// never hang.  A dialed one has its dial's timeout instead.
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

ByteVector encode_preface() {
  ByteVector out;
  out.reserve(kPrefaceSize);
  append_u32(out, kMuxMagic);
  out.push_back(kMuxVersion);
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

}  // namespace

// ---------------------------------------------------------------------------
// MuxConnection: one shared TCP connection, registered with the EventLoop.
// Connections are driven by the process-wide per-core reactor() pool: each
// is assigned one loop round-robin when made and keeps it for life, so one
// hot connection cannot serialize every other connection's reactor work.
// Every operation on its socket, the handshake included, runs on that loop.

class MuxConnection final : public EventLoop::Handler,
                            public std::enable_shared_from_this<MuxConnection> {
 public:
  MuxConnection(bool dialer, std::string peer, std::weak_ptr<Listener> listener)
      : loop_(reactor().next()),
        dialer_(dialer),
        peer_(std::move(peer)),
        listener_(std::move(listener)) {
    counters().connections.fetch_add(1, std::memory_order_relaxed);
  }

  /// Hands `socket`, connected or still connecting, to the loop: this
  /// side's preface goes out ahead of every frame, and the peer's must
  /// arrive within `timeout` or the connection dies.  A refused connect,
  /// a bad preface and the deadline all end in die().
  void start(Socket socket, std::chrono::milliseconds timeout);
  /// A dialed connection whose connect could not start dies with `why`.
  void fail(std::string why);
  /// Parks the caller until the peer's preface arrived.  NetError once
  /// the connection died first, or `deadline` (none: the handshake's own
  /// deadline ends the wait) passed first.
  void await_preface(
      std::optional<std::chrono::steady_clock::time_point> deadline,
      const sched::WaitTag& tag);

  /// Dialer only: allocates a stream id, registers the stream and queues
  /// its OPEN frame.  `window` is the stream's window in each direction.
  std::shared_ptr<Stream> open_stream(std::size_t window);

  void on_io(std::uint32_t events) override;

  // Stream-side entry points (no stream lock may be held by the caller).
  void mark_ready(std::shared_ptr<Stream> stream);
  void enqueue_credit(std::uint32_t stream_id, std::size_t bytes);
  void enqueue_rst(std::uint32_t stream_id);
  void note_stream_closed(std::uint32_t stream_id);

  /// The listener that accepted this connection closed, so no stream can
  /// open on it again: once its last stream closes, it sends what is
  /// queued, half-closes, and dies when the peer closes its end -- or
  /// after kFinishTimeout.  Any thread.
  void orphan();

  bool dead() const { return dead_.load(std::memory_order_acquire); }

 private:
  void request_flush();
  void post_flush();
  void flush();            // loop thread
  void fill_batch();       // loop thread: refills out_buf_ from the queues
  void handle_readable();  // loop thread
  /// Loop thread: dispatches the whole frames at the front of `in`;
  /// returns the bytes they took.
  std::size_t parse_frames(ByteSpan in);
  void dispatch_frame(std::uint32_t stream_id, MuxFrame type, ByteSpan payload);
  void die(const std::string& why);  // loop thread
  void finish_if_idle();             // loop thread

  void push_control(ByteVector frame);

  EventLoop& loop_;
  std::shared_ptr<Socket> socket_;  // loop thread; null until started
  const bool dialer_;
  const std::string peer_;
  std::weak_ptr<Listener> listener_;

  std::mutex table_mutex_;
  std::unordered_map<std::uint32_t, std::shared_ptr<Stream>> streams_;
  std::uint32_t next_stream_id_ = 1;
  std::atomic<bool> dead_{false};
  std::atomic<bool> orphaned_{false};
  // Dialers awaiting the preface, and why the connection died
  // (table_mutex_).
  sched::Waiters prefaced_;
  std::string death_reason_;

  // Send queue (send_mutex_): tiny control frames jump ahead of data; the
  // ready ring round-robins streams so one hot channel cannot starve its
  // siblings on the shared connection.
  std::mutex send_mutex_;
  std::deque<ByteVector> control_;
  std::deque<std::shared_ptr<Stream>> ready_;
  bool flush_scheduled_ = false;

  // Loop-thread-only I/O state.
  ByteVector out_buf_;
  std::size_t out_pos_ = 0;
  bool can_write_ = true;
  ByteVector in_buf_;  // a frame cut by the last receive, else empty
  /// Written by the loop under table_mutex_; dialers read it under it.
  bool preface_done_ = false;
  bool finishing_ = false;  // orphaned and idle: half-close once flushed
  bool write_shut_ = false;
  /// The handshake's deadline, and later an orphan's finish deadline.
  EventLoop::TimerId deadline_timer_ = 0;
};

namespace {

// ---------------------------------------------------------------------------
// The process's connections: the dial cache (one connection per dialed
// host:port) and the keep-alive registry for accepted connections.

class Connections {
 public:
  /// The live connection to host:port, established on first use.  The
  /// cache holds it from before its connect starts, so concurrent dials
  /// to one host:port share it, and a slow host holds up only its own
  /// dials.
  std::shared_ptr<MuxConnection> dialed(const std::string& host,
                                        std::uint16_t port,
                                        std::chrono::milliseconds timeout);
  /// Keeps an accepted connection alive while it is registered with the
  /// loop (the loop holds only a raw Handler*).
  void adopt(std::shared_ptr<MuxConnection> conn);
  /// Drops a dead connection from the registry and the dial cache, so the
  /// next dial to that host establishes a fresh connection.
  void forget(const std::shared_ptr<MuxConnection>& conn);

 private:
  std::mutex conns_mutex_;  // never held across I/O
  std::map<std::pair<std::string, std::uint16_t>,
           std::shared_ptr<MuxConnection>>
      dialed_;
  std::unordered_set<std::shared_ptr<MuxConnection>> all_;
};

Connections& connections() {
  // Leaked on purpose (matches the reactor pool): loop threads must not
  // be torn down by static destruction order.
  static Connections* conns = new Connections;
  return *conns;
}

/// Streams are handed out behind a close-on-last-ref wrapper: a caller
/// that forgets close() cannot leak a table entry forever, and what it
/// queued still flushes (the connection holds the stream until then).
std::shared_ptr<Stream> public_handle(std::shared_ptr<Stream> stream) {
  Stream* raw = stream.get();
  return std::shared_ptr<Stream>(
      raw, [owned = std::move(stream)](Stream*) mutable { owned->close(); });
}

}  // namespace

// ---------------------------------------------------------------------------
// Stream implementation.  Only mux.cpp calls the private members of Stream
// and MuxConnection, so they are defined `inline`: as in a file-local
// class, a member called from one place can then fold into its caller
// (publish into write_vectored, consume into read_in_place), which the
// external linkage of a class named in the header would otherwise stop.
// Without `inline`, BM_MuxStreamToken read about 20% slower.  The three
// members the inliner would now leave out of line are forced in, as the
// file-local class had them.

Stream::Stream(std::shared_ptr<MuxConnection> conn, std::uint32_t id,
               std::size_t window)
    : conn_(std::move(conn)),
      id_(id),
      recv_window_(window),
      credit_(window) {
  counters().streams_total.fetch_add(1, std::memory_order_relaxed);
  counters().streams_active.fetch_add(1, std::memory_order_relaxed);
}

Stream::~Stream() = default;

void Stream::set_wait_observer(WaitObserver* observer) {
  std::scoped_lock lock{mutex_};
  observer_ = observer;
}

inline bool Stream::park_reader(
    std::uint64_t head, const std::chrono::steady_clock::time_point* deadline) {
  std::unique_lock lock{mutex_};
  // A channel's reader names the channel, so a post-mortem shows a
  // consumer hung on a remote producer like one hung on a local pipe.
  const std::uint64_t channel =
      observer_ != nullptr ? observer_->flight_id() : 0;
  const sched::WaitTag tag = deadline == nullptr && channel != 0
                                 ? sched::WaitTag::reading(channel, 0)
                                 : sched::WaitTag{};
  // The whole word equals `head` only with no byte pending and no state
  // bit set.
  return readers_.park(
      [&] { return in_.tail.load(std::memory_order_seq_cst) == head; },
      [&](sched::Waiters& waiters) {
        if (deadline != nullptr) {
          return waiters.wait_until(lock, *deadline, tag);
        }
        wait_observed(lock, waiters, tag);
        return true;
      });
}

inline void Stream::wait_observed(std::unique_lock<std::mutex>& lock,
                                  sched::Waiters& waiters,
                                  const sched::WaitTag& tag) {
  WaitObserver* const observer = observer_;
  if (observer != nullptr) observer->on_park();
  waiters.wait(lock, tag);
  if (observer != nullptr) observer->on_unpark();
}

inline std::uint64_t Stream::await_inbound(std::uint64_t head, bool wait,
                                           bool& ended) {
  for (;;) {
    // The loop sets kRemoteFin and kDead after publishing the data before
    // them, in the same word: a word with either bit carries the final tail.
    const std::uint64_t word = in_.tail.load(std::memory_order_acquire);
    if ((word & kReadShut) != 0) {
      ended = true;
      return head;
    }
    if ((word & kPosMask) != head) return word & kPosMask;
    if ((word & kRemoteFin) != 0) {
      ended = true;
      return head;
    }
    if ((word & kDead) != 0) {
      // The stream-level FIN frame is the *only* graceful end of a mux
      // stream -- a connection that goes away first (RST, fault
      // injection, protocol violation, or even a clean TCP close) took
      // this stream's producer with it, so the loss must be loud, not a
      // truncation dressed up as eof.
      std::scoped_lock lock{mutex_};
      throw NetError{"mux connection lost: " + death_reason_};
    }
    if (!wait) return head;
    park_reader(head, nullptr);
  }
}

inline void Stream::adopt_trace(std::uint64_t from, std::uint64_t to) {
  // Context propagation only: the consuming thread adopts the sender's
  // ambient context.  Span events stay the channel layer's job -- a
  // mux-level event pair here would double every flow arrow.
  std::optional<obs::TraceContext> adopted;
  {
    std::scoped_lock lock{mutex_};
    while (!in_marks_.empty() && in_marks_.front().begin < to) {
      const TraceMark& mark = in_marks_.front();
      if (mark.end > from) adopted = mark.ctx;
      if (mark.end > to) break;
      in_marks_.pop_front();
      in_traced_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (adopted && adopted->valid()) obs::current_trace_context() = *adopted;
}

inline void Stream::consume(std::uint64_t from, std::uint64_t to) {
  if (to == from) return;
  in_.head.store(to, std::memory_order_release);
  // The loop counts a traced frame's mark before publishing its bytes.
  if (in_traced_.load(std::memory_order_acquire) != 0) adopt_trace(from, to);
  unacked_ += static_cast<std::size_t>(to - from);
  // Grant credit at consumption, once half the window is consumed.  This
  // is live at any window, 1 byte included: a blocked sender has the
  // whole window outstanding, so once we have consumed it unacked_ equals
  // the window and crosses the threshold.
  if (unacked_ >= std::max<std::size_t>(
                      1, recv_window_.load(std::memory_order_relaxed) / 2)) {
    grant_consumed();
  }
}

void Stream::return_window() { grant_consumed(); }

inline void Stream::grant_consumed() {
  // Nothing is granted once the peer's FIN arrived or the connection died.
  if (unacked_ == 0 ||
      (in_.tail.load(std::memory_order_relaxed) & (kRemoteFin | kDead)) != 0) {
    return;
  }
  const std::size_t grant = std::exchange(unacked_, 0);
  // Before the CREDIT frame leaves: the loop checks the peer's DATA
  // against this total (on_data).
  credit_granted_.store(
      credit_granted_.load(std::memory_order_relaxed) + grant,
      std::memory_order_release);
  conn_->enqueue_credit(id_, grant);
}

std::size_t Stream::read_in_place(ParseFn parse, bool wait) {
  const std::uint64_t head = in_.head.load(std::memory_order_relaxed);
  const std::uint64_t word = in_.tail.load(std::memory_order_acquire);
  std::uint64_t tail = word & kPosMask;
  if (tail == head || (word & kReadShut) != 0) {
    bool ended = false;
    tail = await_inbound(head, wait, ended);
    if (tail == head) {
      if (ended) parse({});
      return 0;
    }
  }
  std::uint64_t pos = head;
  while (pos < tail) {
    const ByteSpan span = in_.peek(pos, tail - pos);
    const std::size_t n = parse(span);
    consume(pos, pos + n);
    pos += n;
    if (n < span.size()) break;
  }
  if (pos == tail) in_.drained();
  return static_cast<std::size_t>(pos - head);
}

std::size_t Stream::read_some(MutableByteSpan out) {
  if (out.empty()) return 0;
  std::size_t got = 0;
  read_in_place(
      [&](ByteSpan in) -> std::size_t {
        const std::size_t n = std::min(in.size(), out.size() - got);
        if (n > 0) std::memcpy(out.data() + got, in.data(), n);
        got += n;
        return n;
      },
      /*wait=*/true);
  return got;
}

bool Stream::wait_readable(std::chrono::milliseconds timeout) {
  // RMI clients poll with lease.patience: on a fiber the deadline comes
  // from the event loop's timers, so the worker stays free meanwhile.
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  const std::uint64_t head = in_.head.load(std::memory_order_relaxed);
  while (in_.tail.load(std::memory_order_acquire) == head) {
    if (!park_reader(head, &deadline)) {
      return in_.tail.load(std::memory_order_acquire) != head;
    }
  }
  return true;
}

[[gnu::always_inline]] inline bool Stream::await_credit() {
  // A FIN first: the reader of a finished segment may reset it after
  // reading its end, and the writer must still learn of the stop.
  if ((out_.tail.load(std::memory_order_acquire) & kOutClosed) != 0) {
    return false;
  }
  const std::uint64_t credit = credit_.load(std::memory_order_acquire);
  if ((credit & kStop) != 0) {
    std::scoped_lock lock{mutex_};
    if ((in_.tail.load(std::memory_order_relaxed) & kDead) != 0) {
      throw ChannelClosed{"mux connection lost: " + death_reason_};
    }
    throw ChannelClosed{};
  }
  if (credit != sent_) return true;
  // Credit stall: the peer has not consumed what we already sent.
  counters().credit_stalls.fetch_add(1, std::memory_order_relaxed);
  obs::flight_record(obs::FlightKind::kCreditStall, id_, 0);
  const auto stall_start = std::chrono::steady_clock::now();
  // The flusher already has everything we wrote (publish queued it), so
  // the credit it earns will come.
  const auto must_wait = [&] {
    return credit_.load(std::memory_order_seq_cst) == sent_ &&
           (out_.tail.load(std::memory_order_relaxed) & kOutClosed) == 0;
  };
  std::unique_lock lock{mutex_};
  while (must_wait()) {
    writers_.park(must_wait, [&](sched::Waiters& waiters) {
      wait_observed(lock, waiters, {});
      return true;
    });
  }
  lock.unlock();
  const auto stall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - stall_start)
          .count());
  obs::flight_record(obs::FlightKind::kCreditResume, id_, stall_ns);
  counters().credit_stall_ns.fetch_add(stall_ns, std::memory_order_relaxed);
  return true;
}

inline void Stream::ensure_queued() {
  // Our half of the ready handshake (flush_into has the other): the
  // caller moved out_.tail seq_cst, then we look at queued_.
  if (queued_.load(std::memory_order_seq_cst) ||
      queued_.exchange(true, std::memory_order_seq_cst)) {
    return;
  }
  conn_->mark_ready(shared_from_this());
}

inline bool Stream::publish(ByteSpan a, ByteSpan b, bool traced) {
  // Acquire: a writer stopped here sees what its stopper did before.
  const std::uint64_t tail = out_.tail.load(std::memory_order_acquire);
  if ((tail & kOutClosed) != 0) return false;
  const std::uint64_t end = tail + a.size() + b.size();
  out_.put(tail, a);
  out_.put(tail + a.size(), b);
  if (traced) {
    std::scoped_lock lock{mutex_};
    out_marks_.push_back({tail, end, obs::current_trace_context()});
    out_traced_.fetch_add(1, std::memory_order_relaxed);
  }
  // The CAS fails only on a racing finish_with, whose FIN then precedes
  // these bytes: they must not be sent.
  std::uint64_t expected = tail;
  if (!out_.tail.compare_exchange_strong(expected, end,
                                         std::memory_order_seq_cst)) {
    return false;
  }
  ensure_queued();
  return true;
}

void Stream::write_vectored(ByteSpan a, ByteSpan b) {
  const bool traced =
      obs::flight_tokens() && obs::current_trace_context().valid();
  std::size_t written = 0;  // published by this call
  while (!a.empty() || !b.empty()) {
    const std::uint64_t credit = credit_.load(std::memory_order_acquire);
    if ((credit & kStop) != 0 || credit == sent_) {
      if (!await_credit()) break;
      continue;
    }
    // What the window allows of a, then b, published at once.
    const std::size_t take = static_cast<std::size_t>(std::min<std::uint64_t>(
        a.size() + b.size(), credit - sent_));
    const ByteSpan first = a.first(std::min(take, a.size()));
    const ByteSpan second = b.first(take - first.size());
    if (!publish(first, second, traced)) break;
    sent_ += take;
    written += take;
    a = a.subspan(first.size());
    b = b.subspan(second.size());
  }
  if (!a.empty() || !b.empty()) {
    throw io::WriteStopped{written, "write on closed mux stream"};
  }
}

void Stream::finish_with(ByteSpan message) {
  if (message.size() > kMaxEndMessage) {
    throw UsageError{"end message of " + std::to_string(message.size()) +
                     " bytes exceeds the limit"};
  }
  {
    std::scoped_lock lock{mutex_};
    // The message goes in before the bit that lets the flusher send it.
    if ((out_.tail.load(std::memory_order_relaxed) & kOutClosed) != 0) return;
    out_end_.assign(message.begin(), message.end());
    out_.tail.fetch_or(kOutClosed, std::memory_order_seq_cst);
    writers_.wake_locked();  // a stalled writer must throw
  }
  ensure_queued();  // the flusher sends the FIN after the data
  maybe_retire();
}

ByteVector Stream::end_message() const {
  std::scoped_lock lock{mutex_};
  return in_end_;
}

void Stream::grant_window(std::size_t bytes) {
  if (bytes == 0) return;
  // Before the CREDIT frame leaves: the loop checks the peer's DATA
  // against this bound (on_data).
  recv_window_.fetch_add(bytes, std::memory_order_acq_rel);
  conn_->enqueue_credit(id_, bytes);
}

void Stream::shutdown_read() {
  bool send_rst = false;
  {
    std::scoped_lock lock{mutex_};
    const std::uint64_t word =
        in_.tail.fetch_or(kReadShut, std::memory_order_seq_cst);
    if ((word & kReadShut) != 0) return;
    readers_.wake_locked();
    send_rst = (word & (kRemoteFin | kDead)) == 0;
  }
  if (send_rst) conn_->enqueue_rst(id_);
  maybe_retire();
}

inline bool Stream::on_data(ByteSpan payload, const obs::TraceContext* ctx) {
  // The loop thread alone moves the position, so a plain load is current.
  const std::uint64_t word = in_.tail.load(std::memory_order_relaxed);
  // Already RST'd (in-flight data drops), or after the peer's FIN.
  if ((word & (kReadShut | kRemoteFin | kDead)) != 0) return true;
  const std::uint64_t tail = word & kPosMask;
  // Every byte the peer may send is covered by the window or by a credit
  // the reader granted before its CREDIT frame left: received - granted
  // (inbound plus unacked) never exceeds the window.
  if (tail + payload.size() -
          credit_granted_.load(std::memory_order_acquire) >
      recv_window_.load(std::memory_order_acquire)) {
    return false;
  }
  if (payload.empty()) return true;
  in_.put(tail, payload);
  if (ctx != nullptr) {
    std::scoped_lock lock{mutex_};
    in_marks_.push_back({tail, tail + payload.size(), *ctx});
    in_traced_.fetch_add(1, std::memory_order_relaxed);
  }
  // An add, not a store: it keeps a racing shutdown_read's bit.
  in_.tail.fetch_add(payload.size(), std::memory_order_seq_cst);
  readers_.wake(mutex_);
  return true;
}

inline void Stream::on_credit(std::uint32_t bytes) {
  credit_.fetch_add(bytes, std::memory_order_seq_cst);
  writers_.wake(mutex_);
}

inline void Stream::on_fin(ByteSpan message) {
  {
    std::scoped_lock lock{mutex_};
    const std::uint64_t word = in_.tail.load(std::memory_order_relaxed);
    if ((word & (kRemoteFin | kDead)) != 0) return;
    in_end_.assign(message.begin(), message.end());
    obs::flight_record(
        obs::FlightKind::kNetFin, id_,
        (word & kPosMask) - in_.head.load(std::memory_order_relaxed));
    in_.tail.fetch_or(kRemoteFin, std::memory_order_seq_cst);
    readers_.wake_locked();
  }
  maybe_retire();
}

inline void Stream::on_rst() {
  std::scoped_lock lock{mutex_};
  obs::flight_record(obs::FlightKind::kNetRst, id_,
                     (out_.tail.load(std::memory_order_relaxed) & kPosMask) -
                         out_.head.load(std::memory_order_relaxed));
  // The peer stopped reading: writes fail, and the flusher drops what is
  // queued -- flushing more is waste.
  credit_.fetch_or(kStop, std::memory_order_seq_cst);
  writers_.wake_locked();
}

inline void Stream::on_connection_dead(const std::string& why) {
  std::scoped_lock lock{mutex_};
  if ((in_.tail.load(std::memory_order_relaxed) & kDead) != 0) return;
  death_reason_ = why;
  // Reads drain what already arrived; then a stream that never saw its
  // FIN throws NetError (producer lost mid-stream).
  in_.tail.fetch_or(kDead, std::memory_order_seq_cst);
  credit_.fetch_or(kStop, std::memory_order_seq_cst);
  readers_.wake_locked();
  writers_.wake_locked();
}

[[gnu::always_inline]] inline std::uint64_t Stream::flush_into(
    ByteVector& out, bool& more) {
  std::uint64_t frames = 0;
  const std::uint64_t word = out_.tail.load(std::memory_order_acquire);
  const std::uint64_t tail = word & kPosMask;
  std::uint64_t head = out_.head.load(std::memory_order_relaxed);
  if (head < tail && (credit_.load(std::memory_order_acquire) & kStop) != 0) {
    head = tail;  // the peer RST the stream: drop what is queued
    out_.head.store(head, std::memory_order_release);
    if (out_traced_.load(std::memory_order_acquire) != 0) {
      std::scoped_lock lock{mutex_};
      out_marks_.clear();
      out_traced_.store(0, std::memory_order_relaxed);
    }
  }
  if (head < tail) {
    std::uint64_t n = std::min<std::uint64_t>(tail - head, kFlushQuantum);
    std::optional<obs::TraceContext> ctx;
    // The writer counts a traced write's mark before publishing its bytes.
    if (out_traced_.load(std::memory_order_acquire) != 0) {
      std::scoped_lock lock{mutex_};
      const TraceMark& mark = out_marks_.front();
      if (mark.begin <= head) {
        ctx = mark.ctx;
        n = std::min(n, mark.end - head);
        if (head + n == mark.end) {
          out_marks_.pop_front();
          out_traced_.fetch_sub(1, std::memory_order_relaxed);
        }
      } else {
        n = std::min(n, mark.begin - head);
      }
    }
    if (ctx) {
      append_header(out, id_, MuxFrame::kDataTraced,
                    static_cast<std::uint32_t>(n + obs::TraceContext::kWireSize));
      std::uint8_t wire[obs::TraceContext::kWireSize];
      ctx->encode(wire);
      out.insert(out.end(), wire, wire + sizeof wire);
    } else {
      append_header(out, id_, MuxFrame::kData, static_cast<std::uint32_t>(n));
    }
    for (std::uint64_t at = head; at < head + n;) {
      const ByteSpan span = out_.peek(at, head + n - at);
      out.insert(out.end(), span.begin(), span.end());
      at += span.size();
    }
    head += n;
    out_.head.store(head, std::memory_order_release);
    ++frames;
  }
  if (head == tail && (word & kOutClosed) != 0 && !fin_sent_) {
    std::scoped_lock lock{mutex_};
    append_header(out, id_, MuxFrame::kFin,
                  static_cast<std::uint32_t>(out_end_.size()));
    out.insert(out.end(), out_end_.begin(), out_end_.end());
    fin_sent_ = true;
    ++frames;
  }
  more = head < tail;
  if (!more) {
    out_.drained();
    // Our half of the ready handshake (ensure_queued has the other):
    // leave the ring, then look again; bytes or a FIN published since
    // keep the stream in it, unless their publisher queued it already.
    queued_.store(false, std::memory_order_seq_cst);
    const std::uint64_t again = out_.tail.load(std::memory_order_seq_cst);
    const bool pending = (again & kPosMask) != head ||
                         ((again & kOutClosed) != 0 && !fin_sent_);
    if (pending && !queued_.exchange(true, std::memory_order_seq_cst)) {
      more = true;
    }
  }
  return frames;
}

inline void Stream::maybe_retire() {
  {
    std::scoped_lock lock{mutex_};
    const std::uint64_t in = in_.tail.load(std::memory_order_relaxed);
    const bool read_done = (in & (kReadShut | kRemoteFin)) != 0;
    const bool write_closed =
        (out_.tail.load(std::memory_order_relaxed) & kOutClosed) != 0;
    if (!read_done || !write_closed || retired_ || (in & kDead) != 0) return;
    retired_ = true;
  }
  conn_->note_stream_closed(id_);
}

// ---------------------------------------------------------------------------
// MuxConnection implementation.

void MuxConnection::start(Socket socket, std::chrono::milliseconds timeout) {
  loop_.post([self = shared_from_this(),
              owned = std::make_shared<Socket>(std::move(socket)), timeout] {
    self->socket_ = owned;
    self->out_buf_ = encode_preface();
    try {
      owned->set_nonblocking(true);
      self->loop_.add(owned->fd(), self.get());
    } catch (const std::exception& e) {
      self->die(std::string{"epoll registration failed: "} + e.what());
      return;
    }
    // Edge-triggered: bytes that arrived before registration produce no
    // further edge, so probe both directions once.  A socket still
    // connecting reads and writes EAGAIN: the connect's edge follows.
    self->handle_readable();
    if (self->dead()) return;
    self->flush();
    if (self->dead() || self->preface_done_) return;
    self->deadline_timer_ = self->loop_.add_timer(timeout, [self] {
      self->deadline_timer_ = 0;
      self->die("mux preface timeout");
    });
  });
}

void MuxConnection::fail(std::string why) {
  loop_.post([self = shared_from_this(), why = std::move(why)] {
    self->die(why);
  });
}

void MuxConnection::await_preface(
    std::optional<std::chrono::steady_clock::time_point> deadline,
    const sched::WaitTag& tag) {
  std::unique_lock lock{table_mutex_};
  while (!preface_done_ && !dead()) {
    if (!deadline) {
      prefaced_.wait(lock, tag);
    } else if (!prefaced_.wait_until(lock, *deadline, tag)) {
      if (preface_done_) return;
      throw NetError{"mux preface timeout dialing " + peer_};
    }
  }
  if (!preface_done_) {
    throw NetError{"mux connection to " + peer_ + " failed: " + death_reason_};
  }
}

inline std::shared_ptr<Stream> MuxConnection::open_stream(std::size_t window) {
  window = std::clamp<std::size_t>(window, 1, UINT32_MAX);
  std::shared_ptr<Stream> stream;
  {
    std::scoped_lock lock{table_mutex_};
    if (dead()) throw NetError{"mux connection to " + peer_ + " is down"};
    const std::uint32_t id = next_stream_id_++;
    stream = std::make_shared<Stream>(shared_from_this(), id, window);
    streams_.emplace(id, stream);
  }
  ByteVector frame;
  append_header(frame, stream->id(), MuxFrame::kOpen, 4);
  append_u32(frame, static_cast<std::uint32_t>(window));
  push_control(std::move(frame));
  request_flush();
  return stream;
}

inline void MuxConnection::mark_ready(std::shared_ptr<Stream> stream) {
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

inline void MuxConnection::push_control(ByteVector frame) {
  std::scoped_lock lock{send_mutex_};
  control_.push_back(std::move(frame));
}

inline void MuxConnection::enqueue_credit(std::uint32_t stream_id,
                                          std::size_t bytes) {
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

inline void MuxConnection::enqueue_rst(std::uint32_t stream_id) {
  ByteVector frame;
  append_header(frame, stream_id, MuxFrame::kRst, 0);
  push_control(std::move(frame));
  request_flush();
}

inline void MuxConnection::note_stream_closed(std::uint32_t stream_id) {
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

inline void MuxConnection::orphan() {
  orphaned_.store(true, std::memory_order_release);
  loop_.post([self = shared_from_this()] { self->finish_if_idle(); });
}

inline void MuxConnection::finish_if_idle() {
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

inline void MuxConnection::request_flush() {
  bool post = false;
  {
    std::scoped_lock lock{send_mutex_};
    post = !std::exchange(flush_scheduled_, true);
  }
  if (post) post_flush();
}

inline void MuxConnection::post_flush() {
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

inline void MuxConnection::flush() {
  if (dead()) return;
  for (;;) {
    if (out_pos_ < out_buf_.size()) {
      if (!can_write_) return;  // awaiting the next EPOLLOUT edge
      std::optional<std::size_t> n;
      try {
        n = socket_->try_write_some(
            {out_buf_.data() + out_pos_, out_buf_.size() - out_pos_});
      } catch (const IoError& e) {
        // The peer is gone, but the frames it sent before it went are
        // still to be read: a stream's OPEN or data must reach the stream
        // before the connection's death does.  (A socket the fault plan
        // reset is closed already.)
        if (socket_->valid()) handle_readable();
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

[[gnu::always_inline]] inline void MuxConnection::fill_batch() {
  // Every turn first takes all queued control frames -- credits and RSTs
  // are tiny and latency sensitive, and a stream's OPEN must precede its
  // first DATA -- then one frame from the next ready stream: the
  // round-robin quantum that keeps the shared connection fair.
  std::uint64_t frames = 0;
  std::uint64_t credit_frames = 0;
  std::shared_ptr<Stream> requeue;
  for (;;) {
    std::shared_ptr<Stream> stream;
    {
      std::scoped_lock lock{send_mutex_};
      // Behind its siblings; flush_into left it queued, so it is in the
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
    bool more = false;
    frames += stream->flush_into(out_buf_, more);
    if (more) requeue = std::move(stream);
  }
  if (frames > 0) {
    counters().frames_sent.fetch_add(frames, std::memory_order_relaxed);
  }
  if (credit_frames > 0) {
    counters().credit_frames_sent.fetch_add(credit_frames,
                                            std::memory_order_relaxed);
  }
}

inline void MuxConnection::handle_readable() {
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
    if (in_buf_.empty()) {
      // The common case: whole frames parse straight from the receive,
      // and only a frame the receive cut is kept for the next one.
      const ByteSpan received{scratch.data(), *n};
      const std::size_t used = parse_frames(received);
      if (dead()) return;
      in_buf_.assign(received.begin() + static_cast<std::ptrdiff_t>(used),
                     received.end());
    } else {
      in_buf_.insert(in_buf_.end(), scratch.data(), scratch.data() + *n);
      const std::size_t used = parse_frames({in_buf_.data(), in_buf_.size()});
      if (dead()) return;
      in_buf_.erase(in_buf_.begin(),
                    in_buf_.begin() + static_cast<std::ptrdiff_t>(used));
    }
  }
}

inline std::size_t MuxConnection::parse_frames(ByteSpan in) {
  std::size_t pos = 0;
  if (!preface_done_) {
    if (in.size() < kPrefaceSize) return 0;
    if (get_u32(in.data()) != kMuxMagic || in[4] != kMuxVersion) {
      die("bad mux preface");
      return 0;
    }
    {
      std::scoped_lock lock{table_mutex_};
      preface_done_ = true;
      prefaced_.wake_all();
    }
    pos = kPrefaceSize;
    if (deadline_timer_ != 0) {
      loop_.cancel_timer(deadline_timer_);
      deadline_timer_ = 0;
    }
  }
  while (in.size() - pos >= kHeaderSize) {
    const std::uint8_t* header = in.data() + pos;
    const std::uint32_t stream_id = get_u32(header);
    const std::uint8_t type = header[4];
    const std::size_t length = get_u32(header + 5);
    if (length > kMaxFrameBytes) {
      die("oversized mux frame");
      return pos;
    }
    if (in.size() - pos < kHeaderSize + length) break;
    dispatch_frame(stream_id, static_cast<MuxFrame>(type),
                   in.subspan(pos + kHeaderSize, length));
    if (dead()) return pos;
    pos += kHeaderSize + length;
  }
  return pos;
}

inline void MuxConnection::dispatch_frame(std::uint32_t stream_id,
                                          MuxFrame type, ByteSpan payload) {
  if (type == MuxFrame::kOpen) {
    if (dialer_ || payload.size() != 4) {
      die("unexpected OPEN frame");
      return;
    }
    const std::size_t window = get_u32(payload.data());
    if (window == 0) {
      die("OPEN with a zero window");
      return;
    }
    auto listener = listener_.lock();
    std::shared_ptr<Stream> stream;
    {
      std::scoped_lock lock{table_mutex_};
      if (streams_.count(stream_id) != 0) {
        die("duplicate mux stream id");
        return;
      }
      stream = std::make_shared<Stream>(shared_from_this(), stream_id, window);
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
  std::shared_ptr<Stream> stream;
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
      if (!stream->on_data(payload, nullptr)) die("mux window overrun");
      return;
    case MuxFrame::kDataTraced: {
      if (payload.size() < obs::TraceContext::kWireSize) {
        die("short DATA_TRACED frame");
        return;
      }
      const obs::TraceContext ctx =
          obs::TraceContext::decode(payload.data());
      if (!stream->on_data(payload.subspan(obs::TraceContext::kWireSize),
                           &ctx)) {
        die("mux window overrun");
      }
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
      if (payload.size() > Stream::kMaxEndMessage) {
        die("oversized FIN message");
        return;
      }
      stream->on_fin(payload);
      return;
    case MuxFrame::kRst:
      stream->on_rst();
      return;
    case MuxFrame::kOpen:
      return;  // handled above
  }
  die("unknown mux frame type");
}

inline void MuxConnection::die(const std::string& why) {
  if (dead_.exchange(true, std::memory_order_acq_rel)) return;
  log::debug("mux connection ", peer_, " down: ", why);
  if (deadline_timer_ != 0) {
    loop_.cancel_timer(deadline_timer_);
    deadline_timer_ = 0;
  }
  if (socket_) {
    loop_.remove(socket_->fd());
    socket_->close();
  }
  // Before a dialer wakes: its next dial must find the count settled.
  counters().connections.fetch_sub(1, std::memory_order_relaxed);
  std::unordered_map<std::uint32_t, std::shared_ptr<Stream>> orphans;
  {
    std::scoped_lock lock{table_mutex_};
    orphans.swap(streams_);
    death_reason_ = why;
    prefaced_.wake_all();
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
  connections().forget(shared_from_this());
}

// ---------------------------------------------------------------------------
// Listener implementation: a blocking accept loop feeding the loop-side
// handshakes.

std::shared_ptr<Listener> listen(std::uint16_t port) {
  std::shared_ptr<Listener> listener{new Listener(port)};
  // Started once shared ownership exists: the loop hands connections
  // weak_from_this().
  listener->acceptor_ = std::jthread{[raw = listener.get()](
                                         const std::stop_token& stop) {
    raw->accept_loop(stop);
  }};
  return listener;
}

void Listener::accept_loop(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    Socket raw;
    try {
      raw = server_.accept();
    } catch (const NetError&) {
      break;  // listener closed
    }
    auto conn = std::make_shared<MuxConnection>(
        /*dialer=*/false, raw.peer_description(), weak_from_this());
    connections().adopt(conn);
    conn->start(std::move(raw), kHandshakeTimeout);
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

std::shared_ptr<Stream> Listener::accept() {
  std::unique_lock lock{mutex_};
  while (!closed_ && pending_.empty()) waiters_.wait(lock);
  if (!pending_.empty()) {
    auto stream = std::move(pending_.front());
    pending_.pop_front();
    return stream;
  }
  throw NetError{"mux listener closed"};
}

void Listener::close() {
  server_.close();  // unblocks the accept loop
  std::deque<std::shared_ptr<Stream>> drop;
  std::vector<std::weak_ptr<MuxConnection>> accepted;
  {
    std::scoped_lock lock{mutex_};
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

void Listener::deliver(std::shared_ptr<Stream> stream) {
  std::scoped_lock lock{mutex_};
  if (closed_) return;  // handle drops; the stream closes itself
  pending_.push_back(std::move(stream));
  waiters_.wake_all();
}

// ---------------------------------------------------------------------------
// Dialing.

namespace {

std::shared_ptr<MuxConnection> Connections::dialed(
    const std::string& host, std::uint16_t port,
    std::chrono::milliseconds timeout) {
  std::shared_ptr<MuxConnection> conn;
  bool mine = false;
  {
    std::scoped_lock lock{conns_mutex_};
    auto& slot = dialed_[std::make_pair(host, port)];
    if (!slot || slot->dead()) {
      slot = std::make_shared<MuxConnection>(
          /*dialer=*/true, host + ":" + std::to_string(port),
          std::weak_ptr<Listener>{});
      all_.insert(slot);
      mine = true;
    }
    conn = slot;
  }
  // The first dialer connects and waits until the handshake ends, by the
  // preface or by the connection's death (its deadline is this dial's
  // timeout); any other dialer waits for it at most its own timeout.
  if (mine) {
    try {
      conn->start(Socket::start_connect(host, port, timeout), timeout);
    } catch (const std::exception& e) {
      conn->fail(e.what());
      throw;
    }
  }
  conn->await_preface(
      mine ? std::nullopt
           : std::optional{std::chrono::steady_clock::now() + timeout},
      sched::WaitTag::dialing(port));
  if (mine) obs::flight_record_named(obs::FlightKind::kNetDial, host, port);
  return conn;
}

void Connections::adopt(std::shared_ptr<MuxConnection> conn) {
  std::scoped_lock lock{conns_mutex_};
  all_.insert(std::move(conn));
}

void Connections::forget(const std::shared_ptr<MuxConnection>& conn) {
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

std::shared_ptr<Stream> dial(const std::string& host, std::uint16_t port,
                             const DialOptions& options) {
  const auto conn = connections().dialed(host, port, options.timeout);
  return public_handle(conn->open_stream(
      options.stream_window != 0 ? options.stream_window : kStreamWindow));
}

std::shared_ptr<Stream> dial_with_retry(const std::string& host,
                                        std::uint16_t port,
                                        const fault::RetryPolicy& policy,
                                        std::size_t stream_window) {
  // The whole retry loop is one histogram sample: what the caller
  // experienced, backoff included (same accounting as connect_with_retry).
  const auto start = std::chrono::steady_clock::now();
  DialOptions options;
  options.timeout = policy.connect_timeout;
  options.stream_window = stream_window;
  auto stream = fault::with_retry(
      policy, "dial " + host + ":" + std::to_string(port),
      [&] { return dial(host, port, options); });
  obs::runtime_histograms().connect.record_shared(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return stream;
}

/// Registers mux_stats() as the snapshot transport-stats source.  Runs at
/// static init of this translation unit, which the linker pulls in for
/// every binary that dials or listens; binaries that never do report
/// zeros, correctly.
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

}  // namespace dpn::net
