#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <thread>
#include <type_traits>

#include "io/memory.hpp"
#include "io/stream.hpp"
#include "sched/waiters.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

/// Typed zero-copy fast path for in-process channels.
///
/// While both endpoints of a channel live in the same address space there
/// is no reason to serialize every token into the byte pipe and parse it
/// back out: a TypedRing<T> moves the values themselves through a bounded
/// SPSC ring, preserving the channel contract exactly -- reads block while
/// empty, writes block while full (Parks' rule; the ring is growable by
/// the deadlock monitor), closing the read end fails the writer with
/// ChannelClosed, closing the write end drains to end-of-stream.
///
/// The moment an endpoint is shipped to another server the fast path must
/// end: the wire carries bytes.  The cut-point machinery *demotes* the
/// ring -- every buffered value is encoded through the channel's Codec
/// into the byte pipe, in order, and the ring permanently reports
/// kDemoted.  Both typed endpoints then fall back to the byte-stream
/// layers underneath them, which the ship protocols already know how to
/// cut, so a typed channel ships exactly like a byte channel.  The Codec
/// produces the same bytes the endpoint would have written without the
/// fast path, so the consumer-visible history is identical either way
/// (the determinacy matrix asserts this).
namespace dpn::io {

/// Type-erased handle on a TypedRing<T>, held by core::ChannelState and
/// used by the ship cut points, the deadlock monitor and the snapshot
/// code, none of which know T.
class TypedRingBase {
 public:
  enum class PushResult : std::uint8_t {
    kOk,       // value is in the ring
    kDemoted,  // fast path over; encode to the byte stream instead
  };
  enum class PopResult : std::uint8_t {
    kOk,       // a value was produced
    kDemoted,  // fast path over; decode from the byte stream instead
    kEof,      // write end closed and every value consumed
  };

  struct Stats {
    std::size_t size = 0;      // values currently buffered
    std::size_t capacity = 0;  // slots
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    // Parked waiters not yet woken (as io::Pipe counts them): a woken
    // waiter that has not run yet is not blocked.
    std::size_t blocked_readers = 0;
    std::size_t blocked_writers = 0;
    bool demoted = false;
    bool write_closed = false;
    bool read_closed = false;
  };

  virtual ~TypedRingBase() = default;

  virtual Stats stats() const = 0;
  /// Capacity in slots (values, not bytes): the bound a writer parks at.
  virtual std::size_t capacity() const = 0;
  /// Wire bytes one value encodes to; the monitor uses it to compare ring
  /// and pipe capacities in one unit and obs to keep byte totals
  /// meaningful.
  virtual std::size_t value_bytes() const = 0;
  /// Grows to `new_slots` (never shrinks); wakes blocked writers.
  virtual void grow(std::size_t new_slots) = 0;
  /// Wakes every waiter with Interrupted; abnormal shutdown.
  virtual void abort() = 0;
  virtual bool demoted() const = 0;
  /// True when a demotion lost buffered values (throwing encode).  A
  /// poisoned ring stays attached to new typed readers so their pop can
  /// raise WorkerLost -- the byte plane has no record of the hole.
  virtual bool poisoned() const = 0;
  /// Consumer endpoint closed: discard buffered values and fail the
  /// producer's next push with ChannelClosed (cascading termination).
  virtual void close_read() = 0;
  /// Producer endpoint closed: remaining values drain, then pops kEof.
  virtual void close_write() = 0;

  /// The ship cut: encodes every buffered value into `sink` in FIFO order
  /// and flips the ring into the demoted state.  All-or-nothing: the
  /// values are staged through a scratch buffer, so a throwing encode
  /// puts nothing on the wire -- the ring drops its values, poisons
  /// itself (the consumer's next pop throws WorkerLost: its history has a
  /// hole, which must not be mistaken for clean end-of-stream), and the
  /// exception propagates to the shipper.  `sink` must not block: the
  /// callers unbound the pipe first.
  virtual void demote_into(OutputStream& sink) = 0;

  /// Tags flight-recorder block/unblock events with the owning channel's
  /// id, as Pipe::set_flight_id does.  Set once, before the ring is
  /// shared.
  void set_flight_id(std::uint64_t id) { flight_id_ = id; }

 protected:
  std::uint64_t flight_id_ = 0;
};

/// The SPSC ring.  Codec provides
///   static constexpr std::size_t kWireSize;
///   static void encode(const T&, OutputStream&);
/// and must write exactly the bytes the typed endpoint would have written
/// on the byte path (core/typed.hpp's Codec<T> is the canonical one).
///
/// Concurrency (one producer, one consumer: the Kahn discipline).  head_
/// and tail_ count monotonically; a slot is counter & mask_.  A steady
/// push or pop issues one locked instruction, the CAS publishing its
/// index.  The rare transitions are *cuts* under mutex_ (demote, close,
/// abort, storage growth): a cut raises kStop in the index word of each
/// side it stops, kept up while a permanent flag concerns that side (any
/// flag stops the producer; the consumer drains past kWriteClosed).
///  * Publish: the producer writes slot(t), then CASes tail_ t -> t+1,
///    which fails only if a cut raised kStop first; it then takes the
///    value back.  No cut saw it: a cut acts on [head, tail) as read by
///    its fetch_or on tail_, and a fetch_or after a publish reads from it.
///  * Claim: the consumer CASes head_ h -> h+1, then reads storage_,
///    moves slot(h) out and release-stores freed_ = h+1.  A push measures
///    room against freed_, so it never overwrites a slot mid-move.  A cut
///    stopping the consumer spins until freed_ reaches head_: no claim
///    succeeds after its fetch_or, and the claim in flight has only a
///    nothrow move, a destructor and a store left (no lock, no yield
///    point), so the spin lasts one move at most.
///  * Storage changes only while neither side can touch it.  Growth is
///    the producer's own cut, stopping the consumer as above.  It is freed
///    by close_read/demote_into once kWriteClosed is set (no unpublished
///    slot remains), else by the producer's slow path on first seeing
///    kReadClosed/kDemoted/kPoisoned, else by the destructor.  Endpoints
///    are closed by their owners: a close_write racing a push from
///    another thread would void the first case.
///  * Sleepers (sched::Sleepers' Dekker handshake): a parker counts
///    itself, then re-reads the other index; a publisher's CAS precedes
///    its read of the count, so one sees the other and no wake is lost.
///    A writer parks against head_ and retries against freed_,
///    which trails it by the move in flight at most.
///  * End of stream: close_write raises kStop on tail_, then sets
///    kWriteClosed, under mutex_; a pop that reads both under mutex_ sees
///    the final tail, so the last value before a close is never dropped.
/// Storage starts at kMinSlots and doubles on demand up to the bound.
template <typename T, typename Codec>
class TypedRing final : public TypedRingBase {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "ring transit requires a nothrow move");
  static_assert(std::is_nothrow_move_assignable_v<T>,
                "ring transit requires a nothrow move");

 public:
  /// The bound is `slots` rounded up to a power of two, at least
  /// kMinSlots; that many slots' storage is only allocated once needed.
  explicit TypedRing(std::size_t slots) {
    std::size_t bound = kMinSlots;
    while (bound < slots) bound *= 2;
    bound_ = bound;
    storage_ = std::allocator<T>{}.allocate(kMinSlots);
    mask_ = kMinSlots - 1;
  }

  TypedRing(const TypedRing&) = delete;
  TypedRing& operator=(const TypedRing&) = delete;

  ~TypedRing() override {
    const std::uint64_t h = index(head_.load(std::memory_order_relaxed));
    const std::uint64_t t = index(tail_.load(std::memory_order_relaxed));
    for (std::uint64_t i = h; i != t; ++i) slot(i)->~T();
    release_storage();
  }

  /// Blocks while full.  Throws ChannelClosed once the read end closed,
  /// Interrupted on abort.
  PushResult push(T&& value) {
    for (;;) {
      const std::uint64_t t = tail_.load(std::memory_order_relaxed);
      if ((t & kStop) == 0) {
        // A stale lower bound of freed_, so a pass on it is safe; reload
        // only when the storage looks full (SPSC anti-ping-pong).
        if (t - freed_cache_ > mask_) {
          freed_cache_ = freed_.load(std::memory_order_acquire);
        }
        if (t - freed_cache_ <= mask_) {
          T* s = slot(t);
          new (s) T(std::move(value));
          std::uint64_t expected = t;
          if (tail_.compare_exchange_strong(expected, t + 1,
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
            readers_.wake(mutex_);
            return PushResult::kOk;
          }
          // A cut stopped us before the publish: take the value back.
          value = std::move(*s);
          s->~T();
        }
      }
      if (const auto r = push_edge()) return *r;
    }
  }

  /// Blocks while empty.  Throws Interrupted on abort, WorkerLost if a
  /// demotion failed mid-encode (the stream has a hole, not an end).
  PopResult pop(T& out) {
    for (;;) {
      std::uint64_t h = head_.load(std::memory_order_relaxed);
      if ((h & kStop) == 0) {
        // Mirror of freed_cache_: slots below an acquired tail_ are
        // visible.  Compare as a bound, not for equality.
        if (tail_cache_ <= h) {
          tail_cache_ = index(tail_.load(std::memory_order_acquire));
        }
        if (tail_cache_ > h &&
            head_.compare_exchange_strong(h, h + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          T* s = slot(h);
          out = std::move(*s);
          s->~T();
          freed_.store(h + 1, std::memory_order_release);
          writers_.wake(mutex_);
          return PopResult::kOk;
        }
      }
      if (const auto r = pop_edge()) return *r;
    }
  }

  // --- TypedRingBase ---

  Stats stats() const override {
    Stats s;
    const std::uint64_t h = index(head_.load(std::memory_order_relaxed));
    const std::uint64_t t = index(tail_.load(std::memory_order_relaxed));
    s.size = static_cast<std::size_t>(t - h);
    s.pushed = t;
    s.popped = h;
    const std::uint8_t flags = flags_.load(std::memory_order_relaxed);
    s.demoted = (flags & (kDemoted | kPoisoned)) != 0;
    s.write_closed = (flags & kWriteClosed) != 0;
    s.read_closed = (flags & kReadClosed) != 0;
    std::scoped_lock lock{mutex_};
    s.capacity = bound_;
    s.blocked_readers = readers_.size();
    s.blocked_writers = writers_.size();
    return s;
  }

  std::size_t capacity() const override {
    std::scoped_lock lock{mutex_};
    return bound_;
  }

  std::size_t value_bytes() const override { return Codec::kWireSize; }

  /// Raises the bound only; storage follows on demand.  No side needs
  /// stopping: only the slow paths read bound_, under mutex_.
  void grow(std::size_t new_slots) override {
    cut([&] {
      while (bound_ < new_slots) bound_ *= 2;
    });
  }

  void abort() override {
    cut([&] {
      stop_producer();
      head_.fetch_or(kStop, std::memory_order_seq_cst);
      flags_.fetch_or(kAborted, std::memory_order_release);
    });
  }

  bool demoted() const override {
    return (flags_.load(std::memory_order_acquire) &
            (kDemoted | kPoisoned)) != 0;
  }

  bool poisoned() const override {
    return (flags_.load(std::memory_order_acquire) & kPoisoned) != 0;
  }

  void demote_into(OutputStream& sink) override {
    cut([&] {
      if (demoted()) return;
      const std::uint64_t t = stop_producer();
      const std::uint64_t h = stop_consumer();
      ByteVector staged;
      try {
        MemoryOutputStream scratch;
        for (std::uint64_t i = h; i != t; ++i) Codec::encode(*slot(i), scratch);
        staged = std::move(scratch).take();
      } catch (...) {
        // Defined state on a throwing encode: nothing partial reached the
        // sink (all staging), the values are gone, and the consumer sees
        // WorkerLost instead of a silently truncated history.
        discard(h, t);
        flags_.fetch_or(kPoisoned, std::memory_order_release);
        throw;
      }
      discard(h, t);
      // Publish the bytes before kDemoted: once it is visible the
      // producer may encode new values straight to the byte stream, and
      // those must land *after* the ring's backlog.
      if (!staged.empty()) sink.write({staged.data(), staged.size()});
      flags_.fetch_or(kDemoted, std::memory_order_release);
    });
  }

  /// The consumer closed its endpoint: discard buffered values (the
  /// reader is gone) and fail the producer's next push with
  /// ChannelClosed -- cascading termination, same as Pipe::close_read.
  void close_read() override {
    cut([&] {
      const std::uint64_t t = stop_producer();
      discard(stop_consumer(), t);
      flags_.fetch_or(kReadClosed, std::memory_order_release);
    });
  }

  /// The producer closed: remaining values drain, then pops report kEof.
  void close_write() override {
    cut([&] {
      stop_producer();
      flags_.fetch_or(kWriteClosed, std::memory_order_release);
    });
  }

 private:
  static constexpr std::size_t kMinSlots = 16;
  static constexpr std::uint64_t kStop = std::uint64_t{1} << 63;

  static constexpr std::uint8_t kDemoted = 1;
  static constexpr std::uint8_t kPoisoned = 2;
  static constexpr std::uint8_t kWriteClosed = 4;
  static constexpr std::uint8_t kReadClosed = 8;
  static constexpr std::uint8_t kAborted = 16;

  static std::uint64_t index(std::uint64_t word) { return word & ~kStop; }

  T* slot(std::uint64_t i) {
    return storage_ + static_cast<std::size_t>(i & mask_);
  }

  /// Stops the producer: raises kStop on tail_ and returns the final
  /// tail.  Every publish after this fails its CAS.
  std::uint64_t stop_producer() {
    return index(tail_.fetch_or(kStop, std::memory_order_seq_cst));
  }

  /// Stops the consumer: raises kStop on head_, then waits out the claim
  /// in flight, if any (bounded: see the class comment).  Returns head.
  std::uint64_t stop_consumer() {
    const std::uint64_t h =
        index(head_.fetch_or(kStop, std::memory_order_seq_cst));
    while (freed_.load(std::memory_order_acquire) != h) {
      std::this_thread::yield();
    }
    return h;
  }

  /// Ends the ring's life as a ring (demoted, poisoned or read-closed):
  /// destroys the values in [h, t), leaves both sides stopped, and frees
  /// the storage when the producer has closed.
  void discard(std::uint64_t h, std::uint64_t t) {
    for (std::uint64_t i = h; i != t; ++i) slot(i)->~T();
    head_.store(t | kStop, std::memory_order_release);
    freed_.store(t, std::memory_order_release);
    if ((flags_.load(std::memory_order_relaxed) & kWriteClosed) != 0) {
      release_storage();
    }
  }

  /// A push found kStop, lost its publish CAS, or found the storage
  /// full.  Returns the result to surface, or nullopt to retry the fast
  /// path.  Holding mutex_ waits out any cut in progress.
  std::optional<PushResult> push_edge() {
    std::unique_lock lock{mutex_};
    const std::uint8_t flags = flags_.load(std::memory_order_relaxed);
    if ((flags & (kReadClosed | kDemoted | kPoisoned)) != 0) {
      release_storage();  // the consumer side is gone for good
    }
    if ((flags & kAborted) != 0) {
      throw Interrupted{"typed ring aborted during push"};
    }
    if ((flags & kReadClosed) != 0) throw ChannelClosed{};
    if ((flags & (kDemoted | kPoisoned)) != 0) return PushResult::kDemoted;
    if ((flags & kWriteClosed) != 0) {
      throw IoError{"push to closed typed ring"};
    }
    const std::uint64_t t = index(tail_.load(std::memory_order_relaxed));
    const std::uint64_t used = t - freed_.load(std::memory_order_acquire);
    if (used <= mask_) return std::nullopt;  // the consumer made room
    // Storage is full; below the bound it grows instead of parking.
    if (mask_ + 1 < bound_) {
      expand_storage(t);
    } else {
      writers_.park(lock, [this] { return writer_must_wait(); },
                    sched::WaitTag::writing(flight_id_,
                                            used * Codec::kWireSize));
    }
    return std::nullopt;
  }

  /// A pop found kStop, lost its claim CAS, or found the ring empty.
  /// Returns the result to surface, or nullopt to retry the fast path.
  std::optional<PopResult> pop_edge() {
    std::unique_lock lock{mutex_};
    const std::uint8_t flags = flags_.load(std::memory_order_relaxed);
    if ((flags & kPoisoned) != 0) {
      throw WorkerLost{
          "typed ring demotion failed; buffered values were lost"};
    }
    if ((flags & kAborted) != 0) {
      throw Interrupted{"typed ring aborted during pop"};
    }
    if ((flags & kDemoted) != 0) return PopResult::kDemoted;
    if ((flags & kReadClosed) != 0) {
      throw IoError{"pop from closed typed ring"};
    }
    // Read after the flags, under mutex_: with kWriteClosed set this is
    // the final tail, so a value published just before the close is
    // popped, not dropped.
    const std::uint64_t h = index(head_.load(std::memory_order_relaxed));
    if (index(tail_.load(std::memory_order_acquire)) != h) {
      return std::nullopt;
    }
    if ((flags & kWriteClosed) != 0) return PopResult::kEof;
    readers_.park(lock, [this] { return reader_must_wait(); },
                  sched::WaitTag::reading(flight_id_, 0));
    return std::nullopt;
  }

  /// The producer's cut: doubles the storage, relinking the live values
  /// in FIFO order.  Callers hold mutex_ and found the storage full at
  /// tail `t`; the consumer may have drained meanwhile, in which case
  /// nothing moves and the push simply retries.
  void expand_storage(std::uint64_t t) {
    const std::uint64_t h = stop_consumer();
    const std::size_t slots = mask_ + 1;
    if (t - h >= slots) {
      const std::size_t fresh_slots = slots * 2;  // both powers of two
      T* fresh = std::allocator<T>{}.allocate(fresh_slots);
      const std::size_t fresh_mask = fresh_slots - 1;
      for (std::uint64_t i = h; i != t; ++i) {
        new (fresh + static_cast<std::size_t>(i & fresh_mask))
            T(std::move(*slot(i)));
        slot(i)->~T();
      }
      std::allocator<T>{}.deallocate(storage_, slots);
      storage_ = fresh;
      mask_ = fresh_mask;
    }
    head_.store(h, std::memory_order_release);  // reopens the consumer
  }

  /// Frees the slots of a ring that can never carry a value again.
  /// Callers hold the storage rule of the class comment and have
  /// destroyed every live value; slot() must not be called afterwards.
  void release_storage() {
    if (storage_ == nullptr) return;
    std::allocator<T>{}.deallocate(storage_, mask_ + 1);
    storage_ = nullptr;
    mask_ = 0;
  }

  /// Runs f under mutex_, then wakes every waiter, even when f throws:
  /// waiters must re-check the flags f just set.
  template <typename F>
  void cut(F&& f) {
    std::scoped_lock lock{mutex_};
    try {
      f();
    } catch (...) {
      readers_.wake_locked();
      writers_.wake_locked();
      throw;
    }
    readers_.wake_locked();
    writers_.wake_locked();
  }

  /// Park predicates.  Callers hold mutex_ and found no flag set, and
  /// every cut holds mutex_ too, so only the indices can move meanwhile.
  bool reader_must_wait() const {
    return index(head_.load(std::memory_order_seq_cst)) ==
           index(tail_.load(std::memory_order_seq_cst));
  }

  bool writer_must_wait() const {
    return index(tail_.load(std::memory_order_seq_cst)) -
               index(head_.load(std::memory_order_seq_cst)) >=
           bound_;
  }

  // One line per side: the consumer writes head_, freed_ and
  // tail_cache_; the producer writes tail_ and freed_cache_.  Each polls
  // the other's index with acquire -- through its cached lower bound, so
  // the steady-state loop touches the other side's line only at the
  // empty/full boundary.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> freed_{0};  // slots moved out: head_ or one less
  std::uint64_t tail_cache_ = 0;
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t freed_cache_ = 0;
  // Read on every operation by both sides; written only by the storage
  // rule's owners (storage_, mask_), by cuts (flags_) and by parking.
  alignas(64) T* storage_ = nullptr;
  std::size_t mask_ = 0;  // allocated slots - 1
  sched::Sleepers readers_;
  sched::Sleepers writers_;
  std::atomic<std::uint8_t> flags_{0};

  mutable std::mutex mutex_;
  std::size_t bound_ = 0;  // slots a writer may fill before it parks
};

}  // namespace dpn::io
