#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>

#include "io/memory.hpp"
#include "io/ring_core.hpp"
#include "io/stream.hpp"
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

  struct Stats : RingStats {  // in values and slots
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    bool demoted = false;
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
  virtual void set_flight_id(std::uint64_t id) = 0;
};

/// A TypedRing's storage: slots for the values in flight, slot = position
/// & mask, kFirstSlots of them at first.  Each side reads the slots
/// through its own view, on its own cache line; reset() and release()
/// change both, in a cut that keeps the other side out (RingCore's
/// storage rule).
template <typename T>
class SlotRing {
 public:
  struct View {
    T* slots = nullptr;
    std::size_t mask = 0;  // allocated slots - 1
    T* at(std::uint64_t i) const {
      return slots + static_cast<std::size_t>(i & mask);
    }
  };

  static constexpr std::size_t kFirstSlots = 16;

  SlotRing() {
    reset(std::allocator<T>{}.allocate(kFirstSlots), kFirstSlots);
  }
  SlotRing(const SlotRing&) = delete;
  SlotRing& operator=(const SlotRing&) = delete;
  ~SlotRing() { release(); }

  /// Frees the slots, whose values are all destroyed or moved out; at()
  /// must not be called afterwards.
  void release() {
    if (put.slots == nullptr) return;
    std::allocator<T>{}.deallocate(put.slots, put.mask + 1);
    put = take = View{};
  }

  /// Installs `n` fresh slots (a power of two), freeing the old ones.
  void reset(T* fresh, std::size_t n) {
    release();
    put = take = View{fresh, n - 1};
  }

  // One line per side.
  alignas(64) std::atomic<std::uint64_t> tail{0};
  std::uint64_t freed_seen = 0;  // producer: a stale copy of freed
  View put;
  alignas(64) std::atomic<std::uint64_t> head{0};
  std::uint64_t tail_seen = 0;  // consumer: a stale copy of tail
  View take;
};

/// The SPSC ring: a RingCore over a SlotRing.  Codec provides
///   static constexpr std::size_t kWireSize;
///   static void encode(const T&, OutputStream&);
/// and must write exactly the bytes the typed endpoint would have written
/// on the byte path (core/typed.hpp's Codec<T> is the canonical one).
///
/// io/ring_core.hpp holds the proof of the protocol.  What is the ring's
/// own: a value moves into a slot, and back out when its publish fails;
/// the producer measures room against freed, since slots are reused, and
/// below the bound doubles the storage in its own cut instead of
/// parking; demote_into is its own cut (kDemoted, or kPoisoned when an
/// encode throws; both stop both sides).
template <typename T, typename Codec>
class TypedRing final : public TypedRingBase {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "ring transit requires a nothrow move");
  static_assert(std::is_nothrow_move_assignable_v<T>,
                "ring transit requires a nothrow move");

  using Core = RingCore<SlotRing<T>>;

 public:
  /// The bound is `slots` rounded up to a power of two, at least
  /// kFirstSlots; that many slots' storage is only allocated once needed.
  explicit TypedRing(std::size_t slots)
      : core_(std::bit_ceil(std::max(slots, SlotRing<T>::kFirstSlots))) {}

  TypedRing(const TypedRing&) = delete;
  TypedRing& operator=(const TypedRing&) = delete;

  ~TypedRing() override {
    SlotRing<T>& r = ring();
    const std::uint64_t h = Core::index(r.head.load(std::memory_order_relaxed));
    const std::uint64_t t = Core::index(r.tail.load(std::memory_order_relaxed));
    for (std::uint64_t i = h; i != t; ++i) r.put.at(i)->~T();
  }

  /// Blocks while full.  Throws ChannelClosed once the read end closed,
  /// Interrupted on abort.
  PushResult push(T&& value) {
    SlotRing<T>& r = ring();
    for (;;) {
      const std::uint64_t t = r.tail.load(std::memory_order_relaxed);
      if ((t & Core::kStop) == 0) {
        // A stale lower bound of freed, so a pass on it is safe; reload
        // only when the storage looks full (SPSC anti-ping-pong).
        if (t - r.freed_seen > r.put.mask) {
          r.freed_seen = core_.freed.load(std::memory_order_acquire);
        }
        if (t - r.freed_seen <= r.put.mask) {
          T* s = r.put.at(t);
          new (s) T(std::move(value));
          if (core_.publish(t, 1)) return PushResult::kOk;
          // A cut stopped us before the publish: take the value back.
          value = std::move(*s);
          s->~T();
        }
      }
      const std::uint8_t flags = core_.producer_edge(
          Codec::kWireSize, nullptr, [&] { return make_room(); });
      if ((flags & Core::kAborted) != 0) {
        throw Interrupted{"typed ring aborted during push"};
      }
      if ((flags & Core::kReadClosed) != 0) throw ChannelClosed{};
      if ((flags & (kDemoted | kPoisoned)) != 0) return PushResult::kDemoted;
      if (flags != 0) throw IoError{"push to closed typed ring"};
    }
  }

  /// Blocks while empty.  Throws Interrupted on abort, WorkerLost if a
  /// demotion failed mid-encode (the stream has a hole, not an end).
  PopResult pop(T& out) {
    SlotRing<T>& r = ring();
    for (;;) {
      const std::uint64_t h = r.head.load(std::memory_order_relaxed);
      if ((h & Core::kStop) == 0) {
        // Mirror of freed_seen: slots below an acquired tail are visible.
        // Compare as a bound, not for equality.
        if (r.tail_seen <= h) {
          r.tail_seen = Core::index(r.tail.load(std::memory_order_acquire));
        }
        if (r.tail_seen > h && core_.claim(h, 1)) {
          T* s = r.take.at(h);
          out = std::move(*s);
          s->~T();
          core_.claimed(h + 1);
          return PopResult::kOk;
        }
      }
      const std::uint8_t flags = core_.consumer_edge(nullptr);
      if ((flags & kPoisoned) != 0) {
        throw WorkerLost{
            "typed ring demotion failed; buffered values were lost"};
      }
      if ((flags & Core::kAborted) != 0) {
        throw Interrupted{"typed ring aborted during pop"};
      }
      if ((flags & kDemoted) != 0) return PopResult::kDemoted;
      if ((flags & Core::kReadClosed) != 0) {
        throw IoError{"pop from closed typed ring"};
      }
      if (flags != 0) return PopResult::kEof;
    }
  }

  // --- TypedRingBase ---

  Stats stats() const override {
    std::scoped_lock lock{core_.mutex};
    Stats s{core_.stats()};
    s.pushed = Core::index(core_.ring.tail.load(std::memory_order_relaxed));
    s.popped = Core::index(core_.ring.head.load(std::memory_order_relaxed));
    s.demoted = demoted();
    return s;
  }

  std::size_t capacity() const override {
    std::scoped_lock lock{core_.mutex};
    return core_.capacity;
  }

  std::size_t value_bytes() const override { return Codec::kWireSize; }

  /// Raises the bound only; storage follows on demand.
  void grow(std::size_t new_slots) override {
    core_.grow(std::bit_ceil(new_slots));
  }

  void abort() override { core_.abort(); }

  bool demoted() const override { return core_.has(kDemoted | kPoisoned); }

  bool poisoned() const override { return core_.has(kPoisoned); }

  void demote_into(OutputStream& sink) override {
    core_.cut([&] {
      if (demoted()) return;
      const std::uint64_t t = core_.stop_producer();
      const std::uint64_t h = core_.stop_consumer();
      ByteVector staged;
      try {
        MemoryOutputStream scratch;
        for (std::uint64_t i = h; i != t; ++i) {
          Codec::encode(*ring().take.at(i), scratch);
        }
        staged = std::move(scratch).take();
      } catch (...) {
        // Defined state on a throwing encode: nothing partial reached the
        // sink (all staging), the values are gone, and the consumer sees
        // WorkerLost instead of a silently truncated history.
        discard(h, t);
        core_.end_consumer(t);
        core_.flags.fetch_or(kPoisoned, std::memory_order_release);
        throw;
      }
      discard(h, t);
      core_.end_consumer(t);
      // Publish the bytes before kDemoted: once it is visible the
      // producer may encode new values straight to the byte stream, and
      // those must land *after* the ring's backlog.
      if (!staged.empty()) sink.write({staged.data(), staged.size()});
      core_.flags.fetch_or(kDemoted, std::memory_order_release);
    });
  }

  /// The consumer closed its endpoint: discard buffered values (the
  /// reader is gone) and fail the producer's next push with
  /// ChannelClosed -- cascading termination, same as Pipe::close_read.
  void close_read() override {
    core_.close_read([this](std::uint64_t h, std::uint64_t t) {
      discard(h, t);
    });
  }

  /// The producer closed: remaining values drain, then pops report kEof.
  void close_write() override { core_.close_write(); }

  void set_flight_id(std::uint64_t id) override { core_.flight_id = id; }

 private:
  static constexpr std::uint8_t kDemoted = Core::kOwnFlag;
  static constexpr std::uint8_t kPoisoned = Core::kOwnFlag << 1;

  SlotRing<T>& ring() { return core_.ring; }

  /// In a cut that stopped both sides: destroys the values in [h, t),
  /// and frees the storage once the producer has closed.
  void discard(std::uint64_t h, std::uint64_t t) {
    for (std::uint64_t i = h; i != t; ++i) ring().take.at(i)->~T();
    if (core_.has(Core::kWriteClosed)) ring().release();
  }

  /// The producer's edge, under the mutex with no flag set: true when
  /// the storage has room, by now or by growing it below the bound.
  bool make_room() {
    SlotRing<T>& r = ring();
    const std::uint64_t t = Core::index(r.tail.load(std::memory_order_relaxed));
    if (t - core_.freed.load(std::memory_order_acquire) <= r.put.mask) {
      return true;  // the consumer made room
    }
    if (r.put.mask + 1 >= core_.bound.load(std::memory_order_relaxed)) {
      return false;
    }
    expand_storage(t);
    return true;
  }

  /// The producer's cut: doubles the storage, relinking the live values
  /// in FIFO order.  The consumer may have drained meanwhile, in which
  /// case nothing moves and the push simply retries.
  void expand_storage(std::uint64_t t) {
    SlotRing<T>& r = ring();
    const std::uint64_t h = core_.stop_consumer();
    const std::size_t slots = r.put.mask + 1;
    if (t - h >= slots) {
      const std::size_t fresh_slots = slots * 2;  // both powers of two
      T* fresh = std::allocator<T>{}.allocate(fresh_slots);
      const std::size_t fresh_mask = fresh_slots - 1;
      for (std::uint64_t i = h; i != t; ++i) {
        new (fresh + static_cast<std::size_t>(i & fresh_mask))
            T(std::move(*r.put.at(i)));
        r.put.at(i)->~T();
      }
      r.reset(fresh, fresh_slots);
    }
    core_.resume_consumer(h);
  }

  Core core_;
};

}  // namespace dpn::io
