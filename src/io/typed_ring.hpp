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
    std::size_t blocked_readers = 0;
    std::size_t blocked_writers = 0;
    bool demoted = false;
    bool write_closed = false;
    bool read_closed = false;
  };

  virtual ~TypedRingBase() = default;

  virtual Stats stats() const = 0;
  virtual std::size_t blocked_readers() const = 0;
  virtual std::size_t blocked_writers() const = 0;
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
/// Concurrency design: one producer, one consumer (Kahn discipline), both
/// lock-free while the ring is neither empty nor full.  head_/tail_ are
/// monotonic counters; a slot is counter & mask_.  The rare transitions
/// (demote/grow/abort/close, and storage growth) must observe a quiescent
/// ring: they set gate_ and spin until the in_push_/in_pop_ in-flight
/// flags clear -- Dekker-style -- while fast-path entries that see gate_
/// back off onto the mutex.  Empty/full parking uses the mutex and a
/// sched::Waiters list per side (same protocol as io::Pipe).  Both
/// Dekker pairs (gate handshake, sleeper wake-up check) are symmetric:
/// each side publishes its flag with a seq_cst exchange
/// (one locked instruction, cheaper here than store + fence), then loads
/// the other side's flag seq_cst, so at least one of the two sees the
/// other.  Storage is allocated on demand: it starts small and doubles,
/// through a transition, up to the slot bound, so a ring that never
/// fills never pays for its bound.
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
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    for (std::uint64_t i = h; i != t; ++i) slot(i)->~T();
    release_storage();
  }

  /// Blocks while full.  Throws ChannelClosed once the read end closed,
  /// Interrupted on abort.
  PushResult push(T&& value) {
    for (;;) {
      // Gate handshake, our half (the transition's is in transition()).
      in_push_.exchange(true, std::memory_order_seq_cst);
      if (gate_.load(std::memory_order_seq_cst)) {
        in_push_.store(false, std::memory_order_release);
        wait_gate();
        continue;
      }
      if (flags_.load(std::memory_order_acquire) != 0) {
        in_push_.store(false, std::memory_order_release);
        if (const auto r = push_edge()) return *r;
        continue;
      }
      const std::uint64_t t = tail_.load(std::memory_order_relaxed);
      // head_cache_ is a stale lower bound of head_ (it only grows), so a
      // pass on the cached value is always safe; reload only when the
      // storage looks full.  This keeps the consumer's head_ line out of
      // the producer's steady-state loop -- the classic SPSC anti-ping-pong.
      if (t - head_cache_ > mask_) {
        head_cache_ = head_.load(std::memory_order_acquire);
      }
      const std::uint64_t used = t - head_cache_;
      if (used <= mask_) {
        new (slot(t)) T(std::move(value));
        // Sleeper handshake, our half (park has the other).
        tail_.exchange(t + 1, std::memory_order_seq_cst);
        in_push_.store(false, std::memory_order_release);
        if (sleeping_readers_.load(std::memory_order_seq_cst) != 0) {
          wake(readers_, sleeping_readers_);
        }
        return PushResult::kOk;
      }
      // Storage is full; below the bound it grows instead of parking.
      const bool below_bound = used < bound_;
      in_push_.store(false, std::memory_order_release);
      if (below_bound) {
        expand_storage();
      } else {
        park(writers_, sleeping_writers_, &TypedRing::writer_must_wait,
             sched::WaitTag::writing(flight_id_, buffered_bytes()));
      }
    }
  }

  /// Blocks while empty.  Throws Interrupted on abort, WorkerLost if a
  /// demotion failed mid-encode (the stream has a hole, not an end).
  PopResult pop(T& out) {
    for (;;) {
      in_pop_.exchange(true, std::memory_order_seq_cst);
      if (gate_.load(std::memory_order_seq_cst)) {
        in_pop_.store(false, std::memory_order_release);
        wait_gate();
        continue;
      }
      const std::uint64_t h = head_.load(std::memory_order_relaxed);
      // Mirror of head_cache_: slots below a previously acquired tail_
      // are already visible, so the cached bound needs no fresh acquire.
      // Compare as a bound, not for equality -- a demotion can advance
      // head_ past a stale cache, which must read as empty, never as a
      // ring full of destroyed slots.
      if (tail_cache_ <= h) {
        tail_cache_ = tail_.load(std::memory_order_acquire);
      }
      if (tail_cache_ > h) {
        T* s = slot(h);
        out = std::move(*s);
        s->~T();
        head_.exchange(h + 1, std::memory_order_seq_cst);
        in_pop_.store(false, std::memory_order_release);
        if (sleeping_writers_.load(std::memory_order_seq_cst) != 0) {
          wake(writers_, sleeping_writers_);
        }
        return PopResult::kOk;
      }
      in_pop_.store(false, std::memory_order_release);
      const std::uint8_t flags = flags_.load(std::memory_order_acquire);
      if ((flags & kPoisoned) != 0) {
        throw WorkerLost{
            "typed ring demotion failed; buffered values were lost"};
      }
      if ((flags & kAborted) != 0) {
        throw Interrupted{"typed ring aborted during pop"};
      }
      if ((flags & kDemoted) != 0) return PopResult::kDemoted;
      if ((flags & kWriteClosed) != 0) return PopResult::kEof;
      park(readers_, sleeping_readers_, &TypedRing::reader_must_wait,
           sched::WaitTag::reading(flight_id_, 0));
    }
  }

  // --- TypedRingBase ---

  Stats stats() const override {
    Stats s;
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
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

  /// Parked waiters not yet woken (as io::Pipe counts them): a woken
  /// waiter that has not run yet is not blocked.
  std::size_t blocked_readers() const override {
    std::scoped_lock lock{mutex_};
    return readers_.size();
  }

  std::size_t blocked_writers() const override {
    std::scoped_lock lock{mutex_};
    return writers_.size();
  }

  std::size_t capacity() const override {
    std::scoped_lock lock{mutex_};
    return bound_;
  }

  std::size_t value_bytes() const override { return Codec::kWireSize; }

  /// Raises the bound only; storage follows on demand.
  void grow(std::size_t new_slots) override {
    transition([&] {
      while (bound_ < new_slots) bound_ *= 2;
    });
  }

  void abort() override {
    transition([&] { set_flag(kAborted); });
  }

  bool demoted() const override {
    return (flags_.load(std::memory_order_acquire) &
            (kDemoted | kPoisoned)) != 0;
  }

  bool poisoned() const override {
    return (flags_.load(std::memory_order_acquire) & kPoisoned) != 0;
  }

  void demote_into(OutputStream& sink) override {
    transition([&] {
      if ((flags_.load(std::memory_order_relaxed) &
           (kDemoted | kPoisoned)) != 0) {
        return;
      }
      const std::uint64_t h = head_.load(std::memory_order_relaxed);
      const std::uint64_t t = tail_.load(std::memory_order_relaxed);
      ByteVector staged;
      try {
        MemoryOutputStream scratch;
        for (std::uint64_t i = h; i != t; ++i) Codec::encode(*slot(i), scratch);
        staged = std::move(scratch).take();
      } catch (...) {
        // Defined state on a throwing encode: nothing partial reached the
        // sink (all staging), the values are gone, and the consumer sees
        // WorkerLost instead of a silently truncated history.
        for (std::uint64_t i = h; i != t; ++i) slot(i)->~T();
        head_.store(t, std::memory_order_release);
        set_flag(kPoisoned);
        release_storage();
        throw;
      }
      for (std::uint64_t i = h; i != t; ++i) slot(i)->~T();
      head_.store(t, std::memory_order_release);
      release_storage();
      // Publish the bytes while the ring is still gated: once kDemoted is
      // visible the producer may encode new values straight to the byte
      // stream, and those must land *after* the ring's backlog.
      if (!staged.empty()) sink.write({staged.data(), staged.size()});
      set_flag(kDemoted);
    });
  }

  /// The consumer closed its endpoint: discard buffered values (the
  /// reader is gone) and fail the producer's next push with
  /// ChannelClosed -- cascading termination, same as Pipe::close_read,
  /// which likewise releases its storage.
  void close_read() override {
    transition([&] {
      const std::uint64_t h = head_.load(std::memory_order_relaxed);
      const std::uint64_t t = tail_.load(std::memory_order_relaxed);
      for (std::uint64_t i = h; i != t; ++i) slot(i)->~T();
      head_.store(t, std::memory_order_release);
      release_storage();
      set_flag(kReadClosed);
    });
  }

  /// The producer closed: remaining values drain, then pops report kEof.
  void close_write() override {
    transition([&] { set_flag(kWriteClosed); });
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  static constexpr std::uint8_t kDemoted = 1;
  static constexpr std::uint8_t kPoisoned = 2;
  static constexpr std::uint8_t kWriteClosed = 4;
  static constexpr std::uint8_t kReadClosed = 8;
  static constexpr std::uint8_t kAborted = 16;

  T* slot(std::uint64_t i) {
    return storage_ + static_cast<std::size_t>(i & mask_);
  }

  void set_flag(std::uint8_t flag) {
    flags_.store(
        static_cast<std::uint8_t>(flags_.load(std::memory_order_relaxed) |
                                  flag),
        std::memory_order_release);
  }

  /// Handles a push that found a state flag set.  Returns the result to
  /// surface, or nullopt to retry the fast path (flag turned out to be
  /// one that does not affect writers).
  std::optional<PushResult> push_edge() {
    const std::uint8_t flags = flags_.load(std::memory_order_acquire);
    if ((flags & kAborted) != 0) {
      throw Interrupted{"typed ring aborted during push"};
    }
    if ((flags & kReadClosed) != 0) throw ChannelClosed{};
    if ((flags & (kDemoted | kPoisoned)) != 0) return PushResult::kDemoted;
    if ((flags & kWriteClosed) != 0) {
      throw IoError{"push to closed typed ring"};
    }
    return std::nullopt;
  }

  /// The producer found the storage full below the bound: double it,
  /// relinking the live values in FIFO order.  The consumer may have
  /// drained meanwhile, in which case nothing happens and the push simply
  /// retries.
  void expand_storage() {
    transition([&] {
      const std::uint64_t h = head_.load(std::memory_order_relaxed);
      const std::uint64_t t = tail_.load(std::memory_order_relaxed);
      const std::size_t slots = mask_ + 1;
      if (t - h < slots || slots >= bound_ ||
          flags_.load(std::memory_order_relaxed) != 0) {
        return;
      }
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
    });
  }

  /// Frees the slots of a ring that can never carry a value again (read
  /// end closed, or demoted).  Callers hold the ring quiescent and have
  /// destroyed every live value; slot() must not be called afterwards.
  void release_storage() {
    if (storage_ == nullptr) return;
    std::allocator<T>{}.deallocate(storage_, mask_ + 1);
    storage_ = nullptr;
    mask_ = 0;
  }

  /// A fast-path entry saw gate_: a transition is in progress.  Block on
  /// the mutex until it finishes (the transition holds it throughout).
  void wait_gate() {
    std::scoped_lock lock{mutex_};
  }

  /// Runs f with the ring quiescent: mutex held (no parked waiter races,
  /// no concurrent transition), gate up, and both in-flight flags drained.
  /// Always lowers the gate and wakes every waiter, even when f throws --
  /// waiters must re-check the flags f just set.
  template <typename F>
  void transition(F&& f) {
    std::unique_lock lock{mutex_};
    // Our half of the gate handshake: either an entering push/pop sees
    // gate_ and backs off, or we see its in-flight flag and wait it out.
    // The acquire half of these loads also pulls in the slot writes of
    // any push we waited out.
    gate_.exchange(true, std::memory_order_seq_cst);
    while (in_push_.load(std::memory_order_seq_cst) ||
           in_pop_.load(std::memory_order_seq_cst)) {
      std::this_thread::yield();
    }
    try {
      f();
    } catch (...) {
      reopen_locked();
      throw;
    }
    reopen_locked();
  }

  /// Ends a transition: lowers the gate and wakes every waiter, which
  /// must re-check the flags the transition may have set.
  void reopen_locked() {
    gate_.store(false, std::memory_order_release);
    wake_locked(readers_, sleeping_readers_);
    wake_locked(writers_, sleeping_writers_);
  }

  /// Park predicates; callers hold mutex_, which every transition holds
  /// too, so only head_/tail_ can move underneath them.
  bool reader_must_wait() const {
    return head_.load(std::memory_order_seq_cst) ==
               tail_.load(std::memory_order_seq_cst) &&
           flags_.load(std::memory_order_relaxed) == 0 &&
           !gate_.load(std::memory_order_relaxed);
  }

  bool writer_must_wait() const {
    return tail_.load(std::memory_order_seq_cst) -
                   head_.load(std::memory_order_seq_cst) >=
               bound_ &&
           flags_.load(std::memory_order_relaxed) == 0 &&
           !gate_.load(std::memory_order_relaxed);
  }

  /// Parks a reader (or writer) whose fast path found the ring empty
  /// (or full).  `sleeping` is the lock-free mirror of `side`'s count
  /// that push (or pop) checks before taking the lock to wake.
  void park(sched::Waiters& side, std::atomic<std::uint32_t>& sleeping,
            bool (TypedRing::*must_wait)() const, const sched::WaitTag& tag) {
    std::unique_lock lock{mutex_};
    // Re-check under the lock: a push, pop, close or transition may have
    // slipped in between the fast-path probe and this acquire.
    if (!(this->*must_wait)()) return;
    // Our half of the sleeper handshake (the other side's is its index
    // exchange): count ourselves before the last look at the indices.
    sleeping.exchange(static_cast<std::uint32_t>(side.size() + 1),
                      std::memory_order_seq_cst);
    // Else the other side published between our probe and our
    // registration; its wake check may have missed us, so do not sleep.
    if ((this->*must_wait)()) side.wait(lock, tag);
    sleeping.store(static_cast<std::uint32_t>(side.size()),
                   std::memory_order_relaxed);
  }

  /// Occupancy in wire bytes, the unit the pipe's flight events use.
  std::uint64_t buffered_bytes() const {
    return (tail_.load(std::memory_order_relaxed) -
            head_.load(std::memory_order_relaxed)) *
           Codec::kWireSize;
  }

  void wake(sched::Waiters& side, std::atomic<std::uint32_t>& sleeping) {
    std::scoped_lock lock{mutex_};
    wake_locked(side, sleeping);
  }

  // Every parked waiter leaves the list, so the sleeper count drops to
  // zero with it: the next push or pop skips the lock again.
  static void wake_locked(sched::Waiters& side,
                          std::atomic<std::uint32_t>& sleeping) {
    side.wake_all();
    sleeping.store(0, std::memory_order_relaxed);
  }

  // Storage and bound: written only inside transitions (quiescent ring),
  // so both sides read them plainly inside their in-flight window.
  T* storage_ = nullptr;
  std::size_t mask_ = 0;   // allocated slots - 1
  std::size_t bound_ = 0;  // slots a writer may fill before it parks

  // One line per side: the consumer writes head_, tail_cache_ and in_pop_;
  // the producer writes tail_, head_cache_ and in_push_.  Each polls the
  // other's index with acquire -- through its cached lower bound, so the
  // steady-state loop touches the other side's line only at the
  // empty/full boundary.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
  std::atomic<bool> in_pop_{false};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;
  std::atomic<bool> in_push_{false};
  // Read on every operation by both sides, written only by transitions
  // and parking.
  alignas(64) std::atomic<bool> gate_{false};
  std::atomic<std::uint8_t> flags_{0};
  std::atomic<std::uint32_t> sleeping_readers_{0};
  std::atomic<std::uint32_t> sleeping_writers_{0};

  mutable std::mutex mutex_;
  sched::Waiters readers_;
  sched::Waiters writers_;
};

}  // namespace dpn::io
