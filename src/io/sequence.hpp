#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "io/stream.hpp"
#include "sched/waiters.hpp"

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

/// Writes to a switchable underlying OutputStream.  switch_to() waits for
/// any in-flight write to finish and installs the new stream, so the byte
/// sequence observed downstream is a clean concatenation.
///
/// One writer; cuts come from other threads.  A write enters and
/// leaves with one atomic read-modify-write each and takes no lock; a cut
/// (switch_to, close, cut) raises a gate that sends a write arriving
/// later to wait, and parks on a sched::Waiters list until the writes
/// already in flight leave, so a cut on a fiber frees its worker for the
/// writer it waits on.
class SequenceOutputStream final : public OutputStream {
 public:
  explicit SequenceOutputStream(std::shared_ptr<OutputStream> initial)
      : current_(std::move(initial)) {}

  void write(ByteSpan data) override;
  void write_byte(std::uint8_t b) override;
  void write_vectored(ByteSpan a, ByteSpan b) override;
  void close() override;

  /// Replaces the underlying stream.  Blocks until in-flight writes
  /// complete.  If the in-flight write could itself be blocked on a full
  /// pipe, the caller must first unblock it (e.g. Pipe::set_unbounded) --
  /// the distribution machinery in dpn::dist does exactly that.
  void switch_to(std::shared_ptr<OutputStream> next, bool close_old);

  /// Runs `f` as a cut: no write is in flight and none can start until
  /// `f` returns.  Throws IoError once closed.  The redirect of a remote
  /// segment (dist/ship.cpp) runs this way.
  template <typename F>
  void cut(F&& f) {
    const Cut scope{*this};
    if (closed_) throw IoError{"cut on closed SequenceOutputStream"};
    f();
  }

  /// The current underlying stream (for inspection/serialization).
  std::shared_ptr<OutputStream> current() const;

 private:
  /// Enters a write: returns once no cut is in progress; no
  /// cut starts until leave().
  OutputStream& enter();
  void leave() noexcept;
  /// enter(), f(stream), leave() -- also when f throws.
  template <typename F>
  void writing(F&& f);

  /// Holds the gate for its lifetime: raised, with no write in flight.
  class Cut {
   public:
    explicit Cut(SequenceOutputStream& seq);
    ~Cut();
    Cut(const Cut&) = delete;
    Cut& operator=(const Cut&) = delete;

   private:
    SequenceOutputStream& seq_;
  };

  /// A cut holds the gate (bit 0); writes in flight (count, in kWriter).
  static constexpr std::uint32_t kGate = 1;
  static constexpr std::uint32_t kWriter = 2;
  std::atomic<std::uint32_t> state_{0};

  mutable std::mutex mutex_;
  sched::Waiters writers_;  // a writer waiting for the gate to drop
  sched::Waiters cutters_;  // a cut waiting for a write or another cut
  bool cutting_ = false;

  // Written only by a cut, while no write is in flight (current_ also
  // under mutex_, for current()); the writer reads them without a lock
  // between enter() and leave().
  std::shared_ptr<OutputStream> current_;
  bool closed_ = false;
};

}  // namespace dpn::io
