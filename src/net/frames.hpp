#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "io/stream.hpp"
#include "obs/trace.hpp"
#include "support/bytes.hpp"

/// Frame codec for remote channels.
///
/// A raw TCP byte stream cannot express the channel events the paper's
/// termination and redirection protocols need (Sections 3.4, 4.3), so a
/// remote channel segment carries framed traffic:
///
///   frame := type:u8 length:u32 payload[length]
///
///   kData     -- channel payload bytes
///   kFin      -- writer closed; reader sees end-of-stream after draining
///   kRst      -- sent on the *reverse* direction: reader closed, make the
///                writer's next write throw ChannelClosed
///   kRedirect -- "the rest of this stream continues at host:port, token T"
///                (decentralized reconnection, paper Figure 15)
///
/// The codec is transport-agnostic (it reads/writes io streams) so it is
/// unit-testable without sockets.
namespace dpn::net {

enum class FrameType : std::uint8_t {
  kData = 0,
  kFin = 1,
  kRst = 2,
  kRedirect = 3,
  /// Reverse-direction flow control: the consumer grants the producer
  /// this many more payload bytes.  Remote channels are *bounded* (the
  /// paper's Section 3.5 fairness argument must hold across machines);
  /// the producer blocks when its window is exhausted, exactly like a
  /// local writer on a full pipe.
  kCredit = 4,
  /// kData with a 17-byte TraceContext prefix (trace_id:u64 span_id:u64
  /// flags:u8) ahead of the channel bytes -- the frame extension of
  /// docs/PROTOCOLS.md Section 6.  Emitted only while tracing is
  /// enabled, so the wire format is byte-identical to the untraced
  /// protocol otherwise; both ends must know the extension to use it.
  kDataTraced = 5,
};

struct Frame {
  FrameType type = FrameType::kData;
  ByteVector payload;
};

/// Payload of a kRedirect frame.
struct RedirectInfo {
  std::string host;
  std::uint16_t port = 0;
  std::uint64_t token = 0;
  /// Optional causal context for the redirect handshake, appended after
  /// `token` only when valid: decoders that predate it stop at the token
  /// (payload decoding ignores trailing bytes), new decoders of old
  /// payloads leave it invalid.
  obs::TraceContext trace;

  ByteVector encode() const;
  static RedirectInfo decode(ByteSpan payload);
};

class FrameWriter {
 public:
  explicit FrameWriter(std::shared_ptr<io::OutputStream> out)
      : out_(std::move(out)) {}

  void write_data(ByteSpan data);
  /// write_data with the trace-context frame extension: the 17 context
  /// bytes ride in the same single vectored transport write as the
  /// header and payload, so enabling tracing adds no extra syscall.
  void write_data_traced(const obs::TraceContext& ctx, ByteSpan data);
  void write_fin();
  void write_rst();
  void write_redirect(const RedirectInfo& info);
  void write_credit(std::uint32_t bytes);

  void flush() { out_->flush(); }
  void close() { out_->close(); }

 private:
  void write_frame(FrameType type, ByteSpan payload);

  std::shared_ptr<io::OutputStream> out_;
};

/// Incremental frame parser for a receive path that hands out received
/// bytes in pieces of any size (net::Stream::read_in_place).  DATA
/// payload is copied straight into the caller's buffer; only a header
/// cut across two pieces and a control payload are staged here, and
/// nothing is kept between frames.
class FrameParser {
 public:
  /// Consumes bytes of `in`, copying DATA payload to out[produced..] and
  /// advancing `produced`, until `in` or `out` runs out or a control
  /// frame completes.  Returns the bytes of `in` consumed.  A traced DATA
  /// frame's context becomes the thread's ambient trace context as it
  /// completes.  Throws IoError on an oversized or malformed frame.
  std::size_t feed(ByteSpan in, MutableByteSpan out, std::size_t& produced);

  /// A control frame (anything but DATA) is complete; feed() consumes
  /// nothing until take_control() hands it over.
  bool control_ready() const { return complete_; }
  Frame take_control();

  /// True between frames, where a transport end is a clean end.
  bool between_frames() const { return header_len_ == 0; }

 private:
  static constexpr std::size_t kHeaderSize = 5;
  std::uint8_t header_[kHeaderSize] = {};
  std::size_t header_len_ = 0;
  FrameType type_ = FrameType::kData;
  std::size_t payload_left_ = 0;
  /// A control payload, or a traced frame's context prefix, so far.
  ByteVector control_;
  bool complete_ = false;
};

class FrameReader {
 public:
  explicit FrameReader(std::shared_ptr<io::InputStream> in)
      : in_(std::move(in)) {}

  /// Reads the next frame.  Transport end-of-stream (peer vanished without
  /// a kFin) is reported as a synthetic kFin so channel draining still
  /// terminates cleanly.
  Frame read_frame();

  void close() { in_->close(); }

 private:
  std::shared_ptr<io::InputStream> in_;
};

}  // namespace dpn::net
