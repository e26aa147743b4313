#pragma once

#include <cstdint>
#include <memory>

#include "io/byte_ring.hpp"
#include "io/ring_core.hpp"
#include "io/stream.hpp"
#include "support/bytes.hpp"
#include "support/histogram.hpp"

/// Bounded in-memory pipe: the "lowest layer" of a local channel
/// (the paper's LocalInputStream/LocalOutputStream over
/// java.io.PipedInput/OutputStream).
///
/// Semantics required by the paper:
///  * reads block while the buffer is empty (Kahn's blocking read);
///  * writes block while the buffer is full (Section 3.5 -- bounded
///    channels enforce fair scheduling);
///  * closing the write end delivers end-of-stream after the buffer
///    drains; closing the read end makes subsequent writes throw
///    ChannelClosed (Section 3.4 -- cascading termination);
///  * capacity can be grown while blocked writers wait (the
///    deadlock-resolution rule of Parks' bounded scheduling), and the
///    buffer can be atomically stolen/made unbounded while a process
///    graph is being redistributed (Section 4.2).
///
/// The pipe is a RingCore over an io::ByteRing (io/ring_core.hpp holds
/// the one proof of its lock-free protocol).  What is the pipe's own: a
/// write is a vectored put, published at once when it fits; stop_write
/// stops the writer with no end of stream, and a write a stop catches
/// throws WriteStopped with the bytes it published, ahead of
/// ChannelClosed, so the Sequence layer above resumes it on the next
/// segment; steal_buffer and set_unbounded serve shipment; and the pipe
/// keeps the occupancy high-water mark and a histogram of each side's
/// waits.
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
  /// read end is closed, Interrupted if aborted while waiting, and
  /// WriteStopped, with the bytes it published, once close_write or
  /// stop_write stopped the writer (they may race the write).
  void write(ByteSpan data) { write_vectored(data, {}); }

  /// Writes `a` then `b` as one append (one publish when they fit); the
  /// gather path for length-prefixed payloads and frame headers.
  void write_vectored(ByteSpan a, ByteSpan b);

  void close_write() { core_.close_write(); }
  /// Stops the writer for good without end-of-stream: the reader sees
  /// only the bytes published before, and whoever stopped the writer
  /// takes them (steal_buffer) or ends the pipe.
  void stop_write();
  /// Discards what is buffered: the reader is gone, and a shipped
  /// endpoint's steal_buffer must deterministically find the pipe empty.
  void close_read() {
    core_.close_read([](std::uint64_t, std::uint64_t) {});
  }

  /// Wakes every waiter with Interrupted; used for abnormal shutdown.
  void abort() { core_.abort(); }

  /// Grows capacity (never shrinks).  Wakes blocked writers.
  void grow(std::size_t new_capacity) { core_.grow(new_capacity); }

  /// Removes the write bound entirely (writes never block again).  Used
  /// while an endpoint is being serialized for shipment so the producer
  /// cannot be wedged mid-switch.
  void set_unbounded();

  /// Atomically removes and returns all buffered bytes.  Used to ship a
  /// channel's unconsumed data along with a migrating endpoint.
  ByteVector steal_buffer();

  std::size_t capacity() const { return stats().capacity; }
  std::size_t size() const { return static_cast<std::size_t>(core_.size()); }
  bool write_closed() const { return core_.has(Core::kWriteClosed); }
  bool read_closed() const { return core_.has(Core::kReadClosed); }

  /// Instrumentation for the deadlock monitor (Section 3.5 / [13]): the
  /// parked waiters not yet woken (RingStats).
  std::size_t blocked_readers() const { return stats().blocked_readers; }
  std::size_t blocked_writers() const { return stats().blocked_writers; }

  /// Tags flight-recorder block/unblock events with the owning channel's
  /// process-wide id (core::ChannelState::id).  Set once right after
  /// construction, before the pipe is shared.
  void set_flight_id(std::uint64_t id) { core_.flight_id = id; }

  /// One consistent view of the pipe's occupancy and pressure counters
  /// (dpn::obs feeds channel snapshots from this).  Each wait, and only a
  /// wait, lands in a log2 histogram (read_block / write_block), so the
  /// fast path never touches a clock; a histogram's sum and count are the
  /// blocked time and the wakeups, its buckets the wait-time percentiles.
  struct Stats : RingStats {
    std::size_t occupancy_hwm = 0;
    HistogramSnapshot read_block;
    HistogramSnapshot write_block;
  };
  Stats stats() const;

 private:
  using Core = RingCore<ByteRing>;

  Core core_;
  // Every wait's duration, recorded by the waiter under the core's mutex
  // (single writer); the sums and counts are the blocked-ns and wakeup
  // totals.
  LatencyHistogram read_block_hist_;
  LatencyHistogram write_block_hist_;
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
  void stop() override { pipe_->stop_write(); }

  const std::shared_ptr<Pipe>& pipe() const { return pipe_; }

 private:
  std::shared_ptr<Pipe> pipe_;
};

}  // namespace dpn::io
