#pragma once

#include <atomic>
#include <memory>
#include <mutex>

#include "io/byte_ring.hpp"
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
/// Concurrency (one writer, one reader: the Kahn discipline).  The bytes
/// live in an io::ByteRing whose tail and head words are monotonic byte
/// positions.  A steady write or read takes no lock and issues one locked
/// instruction, the CAS publishing its position.  The rare transitions
/// are *cuts* under mutex_ (close_write, stop_write, close_read, abort,
/// steal_buffer): a cut raises kStop in the position word of each side
/// it stops, and keeps it up for good while a flag concerns that side
/// (every flag stops the writer; the reader drains past kWriteClosed and
/// kWriteStopped).  grow and set_unbounded raise bound_ under mutex_ and
/// stop no side.  A write a stop catches throws WriteStopped with the
/// bytes it published, ahead of ChannelClosed: the Sequence layer above
/// resumes it on the next segment.
///  * Publish: the writer copies bytes in past tail t, then CASes tail
///    t -> t+n, which fails only if a cut raised kStop first.  Every cut
///    that stops the writer does so for good, so it never puts again; and
///    no cut saw those bytes: a cut acts on [head, tail) as read by its
///    fetch_or on tail, and a fetch_or after a publish reads from it.
///  * Claim: the reader CASes head h -> h+n, copies [h, h+n) out, then
///    release-stores freed_ = h+n.  A cut stopping the reader spins until
///    freed_ reaches head: no claim succeeds after its fetch_or, and a
///    claim in flight has only memcpys and a store left (no lock, no
///    yield point), so the spin lasts one copy at most.  The writer
///    measures room against head; the ring reuses a block only once the
///    reader has read past it, so a claimed byte stays put until copied.
///  * Storage changes only while neither side can touch it.  It is freed
///    by the writer's slow path on first seeing kReadClosed, else by the
///    destructor.  close_read cannot free it even once the writer is
///    stopped: close_write and stop_write may come from another thread
///    (a Sequence cut) while the writer is still copying a put that its
///    CAS will then fail to publish.
///  * Stale views: the writer keeps a copy of head (ring head_seen), the
///    reader one of tail (tail_seen).  Positions only grow, so a copy
///    only understates the room or the bytes ready, never overstates
///    them; each side reloads it when it falls short of the request, and
///    the writer also before it raises the occupancy high-water mark.
///  * Sleepers (sched::Sleepers): a parked reader waits for tail to move,
///    a parked writer for head; a publisher's CAS precedes its look at
///    the other side's sleeper count, so one sees the other.
///  * End of stream: close_write raises kStop on tail, then sets
///    kWriteClosed, under mutex_; a read that found the ring empty reads
///    both under mutex_, so it sees the final tail: the last bytes before
///    a close are never dropped.
///  * Waiter counts and wait histograms change only under mutex_ (in a
///    park), so the deadlock monitor reads exact values.
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
  void write(ByteSpan data);

  /// Writes `a` then `b` as one append (one publish when they fit); the
  /// gather path for length-prefixed payloads and frame headers.
  void write_vectored(ByteSpan a, ByteSpan b);

  void close_write();
  /// Stops the writer for good without end-of-stream: the reader sees
  /// only the bytes published before, and whoever stopped the writer
  /// takes them (steal_buffer) or ends the pipe.
  void stop_write();
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
  static constexpr std::uint64_t kStop = std::uint64_t{1} << 63;
  static constexpr std::uint8_t kWriteClosed = 1;
  static constexpr std::uint8_t kReadClosed = 2;
  static constexpr std::uint8_t kAborted = 4;
  static constexpr std::uint8_t kWriteStopped = 8;

  static std::uint64_t index(std::uint64_t word) { return word & ~kStop; }

  /// A write found kStop, lost its publish CAS, or found the pipe full,
  /// having published `written` bytes: throws, or returns once a retry
  /// may make progress (after a park).
  void write_edge(std::size_t written);
  /// A read found kStop or an empty pipe: false at end-of-stream, true
  /// once a retry may make progress.  Throws on abort or close_read.
  bool read_edge();
  /// Stops the writer for good; returns the final tail.
  std::uint64_t stop_writer();
  /// Stops the reader, then waits out its claim in flight; returns head.
  std::uint64_t stop_reader();
  /// Runs f under mutex_, then wakes both sides, even when f throws:
  /// waiters must re-check what f changed.
  template <typename F>
  void cut(F&& f);

  ByteRing ring_;
  // Read by every operation, written by cuts and parks.
  alignas(64) std::atomic<std::uint64_t> bound_;  // capacity_, or no bound
  std::atomic<std::uint64_t> occupancy_hwm_{0};   // raised by the writer
  sched::Sleepers readers_;
  sched::Sleepers writers_;
  std::atomic<std::uint8_t> flags_{0};
  std::uint64_t flight_id_ = 0;
  // Written by every read; read by the cuts that stop the reader.
  alignas(64) std::atomic<std::uint64_t> freed_{0};
  mutable std::mutex mutex_;
  std::size_t capacity_;
  // Every wait's duration, recorded by the waiter under mutex_ (single
  // writer); the sums and counts are the blocked-ns and wakeup totals.
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
