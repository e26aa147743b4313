#pragma once

#include <memory>
#include <mutex>

#include "io/stream.hpp"
#include "sched/waiters.hpp"
#include "support/bytes.hpp"
#include "support/histogram.hpp"

/// Bounded in-memory pipe: the "lowest layer" of a local channel
/// (the paper's LocalInputStream/LocalOutputStream over
/// java.io.PipedInput/OutputStream).
///
/// Semantics required by the paper:
///  * reads block while the buffer is empty (Kahn's blocking read);
///  * writes block while the buffer is full (Section 3.5 — bounded
///    channels enforce fair scheduling);
///  * closing the write end delivers end-of-stream after the buffer
///    drains; closing the read end makes subsequent writes throw
///    ChannelClosed (Section 3.4 — cascading termination);
///  * capacity can be grown while blocked writers wait (the
///    deadlock-resolution rule of Parks' bounded scheduling), and the
///    buffer can be atomically stolen/made unbounded while a process
///    graph is being redistributed (Section 4.2).
namespace dpn::io {

class Pipe {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit Pipe(std::size_t capacity = kDefaultCapacity);

  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  /// Blocks until >=1 byte available or end-of-stream (returns 0).
  /// Throws Interrupted if the pipe is aborted while waiting.
  std::size_t read_some(MutableByteSpan out);

  /// Blocks while full (unless unbounded).  Throws ChannelClosed if the
  /// read end is closed, Interrupted if aborted while waiting.
  void write(ByteSpan data);

  /// Writes `a` then `b` under a single mutex acquisition (one blocking
  /// protocol pass instead of two); the gather path for length-prefixed
  /// payloads and frame headers.
  void write_vectored(ByteSpan a, ByteSpan b);

  void close_write();
  void close_read();

  /// Wakes every waiter with Interrupted; used for abnormal shutdown.
  void abort();

  /// Grows capacity (never shrinks).  Wakes blocked writers.
  void grow(std::size_t new_capacity);

  /// Removes the write bound entirely (writes never block again).  Used
  /// while an endpoint is being serialized for shipment so the producer
  /// cannot be wedged mid-switch.
  void set_unbounded();

  /// Atomically removes and returns all buffered bytes.  Used to ship a
  /// channel's unconsumed data along with a migrating endpoint.
  ByteVector steal_buffer();

  std::size_t capacity() const;
  std::size_t size() const;
  bool write_closed() const;
  bool read_closed() const;

  /// Instrumentation for the deadlock monitor (Section 3.5 / [13]): the
  /// parked waiters not yet woken.  A woken waiter that has not run yet
  /// is not counted -- it is about to make progress.
  std::size_t blocked_readers() const;
  std::size_t blocked_writers() const;

  /// Tags flight-recorder block/unblock events with the owning channel's
  /// process-wide id (core::ChannelState::id).  Set once right after
  /// construction, before the pipe is shared.
  void set_flight_id(std::uint64_t id) { flight_id_ = id; }
  std::uint64_t flight_id() const { return flight_id_; }

  /// One consistent view of the pipe's occupancy and pressure counters
  /// (dpn::obs feeds channel snapshots from this).  Each wait, and only a
  /// wait, lands in a log2 histogram (read_block / write_block), so the
  /// fast path never touches a clock; a histogram's sum and count are the
  /// blocked time and the wakeups, its buckets the wait-time percentiles.
  struct Stats {
    std::size_t size = 0;
    std::size_t capacity = 0;
    std::size_t occupancy_hwm = 0;
    std::size_t blocked_readers = 0;
    std::size_t blocked_writers = 0;
    bool write_closed = false;
    bool read_closed = false;
    HistogramSnapshot read_block;
    HistogramSnapshot write_block;
  };
  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  // Blocked readers and writers, fibers and threads alike; their sizes
  // are the exact blocked counts the deadlock monitor reads, and every
  // change to a wait condition wakes the side it can unblock.
  sched::Waiters readers_;
  sched::Waiters writers_;
  ByteVector buffer_;      // ring storage
  std::size_t head_ = 0;   // index of first unread byte
  std::size_t count_ = 0;  // bytes stored
  std::size_t capacity_;
  bool unbounded_ = false;
  bool write_closed_ = false;
  bool read_closed_ = false;
  bool aborted_ = false;
  std::size_t occupancy_hwm_ = 0;
  std::uint64_t flight_id_ = 0;
  // Every wait's duration, recorded by the waiter under mutex_ (single
  // writer); the sums and counts are the blocked-ns and wakeup totals.
  LatencyHistogram read_block_hist_;
  LatencyHistogram write_block_hist_;

  // All private helpers assume mutex_ is held.
  std::size_t take_locked(MutableByteSpan out);
  void put_locked(ByteSpan data);
  void ensure_storage_locked(std::size_t needed);
  // Wakes both sides: a close or abort can unblock either.
  void wake_all_locked();
};

/// Read end of a Pipe as an InputStream.
class LocalInputStream final : public InputStream {
 public:
  explicit LocalInputStream(std::shared_ptr<Pipe> pipe)
      : pipe_(std::move(pipe)) {}

  std::size_t read_some(MutableByteSpan out) override {
    return pipe_->read_some(out);
  }
  void close() override { pipe_->close_read(); }

  const std::shared_ptr<Pipe>& pipe() const { return pipe_; }

 private:
  std::shared_ptr<Pipe> pipe_;
};

/// Write end of a Pipe as an OutputStream.
class LocalOutputStream final : public OutputStream {
 public:
  explicit LocalOutputStream(std::shared_ptr<Pipe> pipe)
      : pipe_(std::move(pipe)) {}

  void write(ByteSpan data) override { pipe_->write(data); }
  void write_vectored(ByteSpan a, ByteSpan b) override {
    pipe_->write_vectored(a, b);
  }
  void close() override { pipe_->close_write(); }

  const std::shared_ptr<Pipe>& pipe() const { return pipe_; }

 private:
  std::shared_ptr<Pipe> pipe_;
};

}  // namespace dpn::io
