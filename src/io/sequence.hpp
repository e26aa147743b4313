#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "io/stream.hpp"

/// Sequence streams: the layer that makes live reconfiguration and
/// redistribution possible (paper Sections 3.1, 3.3, 4.2, 4.3).
///
/// Every ChannelInputStream contains a SequenceInputStream and every
/// ChannelOutputStream contains a SequenceOutputStream, so the transport
/// underneath a channel can be swapped -- local pipe to socket, old socket
/// to redirected socket, upstream channel spliced in when a process removes
/// itself -- without the communicating processes noticing and without
/// reordering or losing a single byte.
///
/// Both layers rely on the Kahn discipline -- one reader, one writer per
/// channel -- and take a lock only at a cut: a splice, a switch, a close,
/// or the reader's step to the next queued stream.  A steady-state token
/// passes through without one (DESIGN.md section 6).
///
/// The output side has no cut mechanism of its own: the writer owns the
/// segment it writes and calls it with no lock and no atomic
/// read-modify-write, so a steady byte write issues one locked
/// instruction, the segment's publish CAS (io::Pipe, net's mux stream).
/// A cut stops the writer through the segment.  Why that is exact:
///  * Successor first.  A cut (switch_to, close) installs the successor
///    in current_ under mutex_, or marks the sequence closed, releases
///    mutex_, and only then stops the old segment with the segment's own
///    cut: Pipe::close_write or stop_write raise the stop bit in the
///    pipe's tail word; a mux stream's finish_with raises kOutClosed in
///    its tail word (dist::FrameChannelOutput, whose consumer may not
///    have dialed in yet, does so once the stream arrives).
///  * No byte after a stop.  A segment puts a write's bytes past its
///    tail, then publishes them with a CAS on the tail word; the CAS
///    fails if a stop came first, and a stop is for good.  So the old
///    segment holds a prefix of the history, and a write the stop
///    catches learns that it published its first `written` bytes
///    (io::WriteStopped) and not one more.
///  * The writer finds the successor.  It saw the stop in the segment's
///    tail word with acquire, or under the segment's mutex, and the stop
///    was raised after the cut released mutex_; so taking mutex_ it
///    reads the successor and writes the rest of the write there.  If
///    current_ is still its segment, the segment stopped for a reason of
///    its own and the write fails with it; if the sequence is closed,
///    with IoError.
///  * Nothing waits for a write.  A cut returns once the stop is raised.
///    A writer between writes meets the stop at its next write, at no
///    cost before; one parked inside the old segment (a full pipe, an
///    exhausted mux window) is woken by the stop and resumes on the
///    successor.  Errors a segment raises for its own reasons keep their
///    types: ChannelClosed, Interrupted, NetError, WorkerLost.
///
/// Why a mux write publishes with a CAS and not a release store: the
/// writer publishes its tail and then reads the stream's queued flag,
/// while the flusher clears that flag and then re-reads the tail.  Each
/// side orders a store before a load, and without an asymmetric barrier
/// on the flusher's side (the kind of barrier this code base gave up as
/// too hard to prove) only a locked instruction or a full fence gives the
/// writer that StoreLoad order.  So a release store would save nothing,
/// and the CAS is now also the gate: its failure is how a cut stops a
/// write, which is what lets this layer go without a gate of its own.
namespace dpn::io {

/// Reads a succession of InputStreams as one continuous stream.  When the
/// current stream reaches end-of-stream it is closed and the next queued
/// stream becomes current.  End-of-stream of the whole sequence is reported
/// when the last queued stream ends (sticky; later appends do not revive a
/// finished sequence).
///
/// One reader at a time.  append(), close(), pending() and finished() may
/// be called from any thread.  The reader owns its current stream and
/// reads it without a lock; close() reaches that stream through a copy
/// published when the reader advanced onto it, so a reader blocked inside
/// it is woken.  The reader lets go of a closed sequence's stream on its
/// next read, or when the sequence is destroyed.
class SequenceInputStream final : public InputStream {
 public:
  SequenceInputStream() = default;
  explicit SequenceInputStream(std::shared_ptr<InputStream> first) {
    append(std::move(first));
  }

  std::size_t read_some(MutableByteSpan out) override;
  void close() override;

  /// Splices `next` after everything currently queued.  Must happen before
  /// the preceding stream delivers end-of-stream (the reconfiguration
  /// protocols guarantee this ordering: append first, then stop producing).
  void append(std::shared_ptr<InputStream> next);

  /// Number of streams not yet exhausted (including current).
  std::size_t pending() const;

  /// True once end-of-stream has been delivered to the reader.
  bool finished() const;

 private:
  /// The reader's step onto the next queued stream; false at the end of
  /// the sequence.  Throws IoError once closed.
  bool advance();

  // Reader-owned: the stream being read.
  std::shared_ptr<InputStream> current_;
  std::atomic<bool> closed_{false};

  mutable std::mutex mutex_;
  std::deque<std::shared_ptr<InputStream>> queue_;
  // current_ as of the reader's last advance: what close() closes.
  std::shared_ptr<InputStream> published_;
  bool done_ = false;
};

/// Writes to a switchable underlying OutputStream: the concatenation of
/// its segments is exactly the bytes written (see the proof above).
///
/// One writer; switch_to(), close() and current() may be called from any
/// thread.  A segment must let its close() and stop() come from another
/// thread while a write is in flight, and then fail that write and every
/// later one with io::WriteStopped (io::Pipe, dist::FrameChannelOutput;
/// a MemoryOutputStream only from the writer's thread).
class SequenceOutputStream final : public OutputStream {
 public:
  explicit SequenceOutputStream(std::shared_ptr<OutputStream> initial)
      : segment_(initial), current_(std::move(initial)) {}

  void write(ByteSpan data) override { write_vectored(data, {}); }
  void write_byte(std::uint8_t b) override { write_vectored({&b, 1}, {}); }
  void write_vectored(ByteSpan a, ByteSpan b) override;
  void close() override;

  /// Makes `next` the segment that later bytes go to, and stops the old
  /// one: closes it (its reader reads end-of-stream after its bytes), or,
  /// without `close_old`, stops it and leaves its bytes to the caller.
  /// Returns without waiting for a write in flight.
  void switch_to(std::shared_ptr<OutputStream> next, bool close_old);

  /// The latest segment (for inspection/serialization).
  std::shared_ptr<OutputStream> current() const;

 private:
  // Writer-owned: the segment being written.
  std::shared_ptr<OutputStream> segment_;

  mutable std::mutex mutex_;
  std::shared_ptr<OutputStream> current_;  // segment_, or its successor
  bool closed_ = false;
};

}  // namespace dpn::io
