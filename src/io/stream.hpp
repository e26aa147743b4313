#pragma once

#include <cstdint>
#include <memory>

#include "support/bytes.hpp"
#include "support/error.hpp"

/// Abstract byte streams, mirroring java.io.InputStream/OutputStream.
///
/// These are the building blocks of the paper's Figure 3 layer diagram:
/// every Kahn channel is ultimately a pair of these, and every layer
/// (blocking, sequence, local pipe, socket) is a decorator or leaf in this
/// hierarchy.
namespace dpn::io {

class InputStream {
 public:
  virtual ~InputStream() = default;

  /// Reads up to `out.size()` bytes.  Blocks until at least one byte is
  /// available or end-of-stream.  Returns the number of bytes read; returns
  /// 0 (for a non-empty `out`) only at end-of-stream.
  virtual std::size_t read_some(MutableByteSpan out) = 0;

  /// Reads a single byte, or returns -1 at end-of-stream.
  virtual int read() {
    std::uint8_t b = 0;
    return read_some({&b, 1}) == 0 ? -1 : static_cast<int>(b);
  }

  /// Reader abandons the stream.  For a channel this makes the producer's
  /// next write throw ChannelClosed (the paper's cascading-termination
  /// trigger).  Idempotent.
  virtual void close() = 0;
};

class OutputStream {
 public:
  virtual ~OutputStream() = default;

  /// Writes all of `data`, blocking while the destination is full.  Throws
  /// ChannelClosed if the reader has closed.
  virtual void write(ByteSpan data) = 0;

  virtual void write_byte(std::uint8_t b) { write({&b, 1}); }

  /// Writes `a` immediately followed by `b` as one atomic write: the two
  /// parts cannot be torn apart by other writers on the same stream, and
  /// leaf transports collapse them into a single operation (one pipe
  /// publish, one ::writev syscall).  The default implementation coalesces
  /// into a temporary buffer; override where gathering is cheaper.
  virtual void write_vectored(ByteSpan a, ByteSpan b);

  /// Writer is done: end-of-stream is delivered to the reader once all
  /// buffered data has been drained.  Idempotent.
  virtual void close() = 0;

  /// Stops the writer for good, like close(), but leaves the reader's end
  /// to the caller, who takes what the stream holds (a migration steals a
  /// pipe's bytes).  A stream that cannot stop without ending closes.
  virtual void stop() { close(); }
};

/// A write to a stream whose writer was stopped -- by close() or stop(),
/// perhaps from another thread while this write was in flight.  The
/// stream published the first `written` bytes of the write and none of
/// the rest.  The Sequence layer resumes the rest on its next segment
/// (io/sequence.hpp); anywhere else it is a write to a closed stream.
class WriteStopped : public IoError {
 public:
  WriteStopped(std::size_t published, const std::string& what)
      : IoError(what), written(published) {}

  std::size_t written;
};

/// Reads exactly `out.size()` bytes or throws EndOfStream.  This is the
/// blocking-read guarantee Kahn's model requires; BlockingInputStream wraps
/// it as a stream layer and DataInputStream uses it for primitives.
void read_fully(InputStream& in, MutableByteSpan out);

/// Copies everything from `in` to `out` until end-of-stream; returns the
/// number of bytes moved.
std::size_t pump(InputStream& in, OutputStream& out,
                 std::size_t chunk_size = 4096);

/// Discards all writes; used for detached/abandoned endpoints.
class NullOutputStream final : public OutputStream {
 public:
  void write(ByteSpan) override {}
  void write_vectored(ByteSpan, ByteSpan) override {}
  void close() override {}
};

/// Always at end-of-stream.
class EmptyInputStream final : public InputStream {
 public:
  std::size_t read_some(MutableByteSpan) override { return 0; }
  void close() override {}
};

}  // namespace dpn::io
