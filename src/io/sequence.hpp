#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>

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
namespace dpn::io {

/// Reads a succession of InputStreams as one continuous stream.  When the
/// current stream reaches end-of-stream it is closed and the next queued
/// stream becomes current.  End-of-stream of the whole sequence is reported
/// when the last queued stream ends (sticky; later appends do not revive a
/// finished sequence).
class SequenceInputStream final : public InputStream {
 public:
  SequenceInputStream() = default;
  explicit SequenceInputStream(std::shared_ptr<InputStream> first) {
    append(std::move(first));
  }

  std::size_t read_some(MutableByteSpan out) override;
  int read() override;
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
  std::shared_ptr<InputStream> advance_locked();

  mutable std::mutex mutex_;
  std::deque<std::shared_ptr<InputStream>> queue_;
  std::shared_ptr<InputStream> current_;
  bool done_ = false;
  bool closed_ = false;
};

/// Writes to a switchable underlying OutputStream.  switch_to() waits for
/// any in-flight write to finish, flushes the old stream, and installs the
/// new one, so the byte sequence observed downstream is a clean
/// concatenation.
class SequenceOutputStream final : public OutputStream {
 public:
  explicit SequenceOutputStream(std::shared_ptr<OutputStream> initial)
      : current_(std::move(initial)) {}

  void write(ByteSpan data) override;
  void write_byte(std::uint8_t b) override;
  void write_vectored(ByteSpan a, ByteSpan b) override;
  void flush() override;
  void close() override;

  /// Replaces the underlying stream.  Blocks until in-flight writes
  /// complete.  If the in-flight write could itself be blocked on a full
  /// pipe, the caller must first unblock it (e.g. Pipe::set_unbounded) --
  /// the distribution machinery in dpn::dist does exactly that.
  void switch_to(std::shared_ptr<OutputStream> next, bool close_old);

  /// The current underlying stream (for inspection/serialization).
  std::shared_ptr<OutputStream> current() const;

 private:
  mutable std::shared_mutex gate_;
  std::shared_ptr<OutputStream> current_;
  bool closed_ = false;
};

}  // namespace dpn::io
