#include "net/frames.hpp"

#include <algorithm>
#include <cstring>

#include "io/data.hpp"
#include "io/memory.hpp"

namespace dpn::net {

namespace {

constexpr std::size_t kMaxFramePayload = 1u << 26;  // 64 MiB sanity bound

struct FrameHeader {
  FrameType type;
  std::size_t length;
};

/// Decodes the 5 header bytes; the one place a header is checked.
FrameHeader decode_header(const std::uint8_t* header) {
  const FrameHeader decoded{static_cast<FrameType>(header[0]),
                            get_u32(header + 1)};
  if (decoded.length > kMaxFramePayload) {
    throw IoError{"frame payload of " + std::to_string(decoded.length) +
                  " bytes exceeds limit"};
  }
  if (decoded.type == FrameType::kDataTraced &&
      decoded.length < obs::TraceContext::kWireSize) {
    throw IoError{"traced data frame shorter than its context"};
  }
  return decoded;
}

}  // namespace

ByteVector RedirectInfo::encode() const {
  io::MemoryOutputStream sink;
  io::DataOutputStream data{sink};
  data.write_string(host);
  data.write_u16(port);
  data.write_u64(token);
  // Optional trace-context extension: appended only when set, so a
  // pre-extension decoder (which stops at the token) still parses the
  // payload, and an untraced redirect is byte-identical to before.
  if (trace.valid()) {
    std::uint8_t ctx[obs::TraceContext::kWireSize];
    trace.encode(ctx);
    data.write({ctx, sizeof ctx});
  }
  return sink.take();
}

RedirectInfo RedirectInfo::decode(ByteSpan payload) {
  io::MemoryInputStream source{ByteVector{payload.begin(), payload.end()}};
  io::DataInputStream data{source};
  RedirectInfo info;
  info.host = data.read_string();
  info.port = data.read_u16();
  info.token = data.read_u64();
  std::uint8_t ctx[obs::TraceContext::kWireSize];
  try {
    data.read_fully({ctx, sizeof ctx});
    info.trace = obs::TraceContext::decode(ctx);
  } catch (const EndOfStream&) {
    // Pre-extension sender: no context appended.
  }
  return info;
}

void FrameWriter::write_data(ByteSpan data) {
  // Zero-length data frames are legal no-ops but never emitted.
  if (!data.empty()) write_frame(FrameType::kData, data);
}

void FrameWriter::write_data_traced(const obs::TraceContext& ctx,
                                    ByteSpan data) {
  if (data.empty()) return;
  // Header and context share one stack buffer so the traced frame is
  // still a single vectored transport write (same syscall count as
  // write_data; the extension costs 17 payload bytes, nothing else).
  std::uint8_t head[5 + obs::TraceContext::kWireSize];
  head[0] = static_cast<std::uint8_t>(FrameType::kDataTraced);
  put_u32(head + 1, static_cast<std::uint32_t>(
                        data.size() + obs::TraceContext::kWireSize));
  ctx.encode(head + 5);
  out_->write_vectored({head, sizeof head}, data);
}

void FrameWriter::write_fin() { write_frame(FrameType::kFin, {}); }

void FrameWriter::write_rst() { write_frame(FrameType::kRst, {}); }

void FrameWriter::write_credit(std::uint32_t bytes) {
  std::uint8_t payload[4];
  put_u32(payload, bytes);
  write_frame(FrameType::kCredit, {payload, sizeof payload});
}

void FrameWriter::write_redirect(const RedirectInfo& info) {
  const ByteVector payload = info.encode();
  write_frame(FrameType::kRedirect, {payload.data(), payload.size()});
}

void FrameWriter::write_frame(FrameType type, ByteSpan payload) {
  std::uint8_t header[5];
  header[0] = static_cast<std::uint8_t>(type);
  put_u32(header + 1, static_cast<std::uint32_t>(payload.size()));
  // Header and payload travel as ONE vectored write per frame: a kData
  // frame is a single ::writev on a socket (no per-frame allocation or
  // copy), and the un-tearable write keeps concurrent framing layers on
  // the same stream from interleaving (writers serialize in the stream
  // below us, but a torn frame must be impossible).
  if (payload.empty()) {
    out_->write({header, sizeof header});
  } else {
    out_->write_vectored({header, sizeof header}, payload);
  }
}

std::size_t FrameParser::feed(ByteSpan in, MutableByteSpan out,
                              std::size_t& produced) {
  std::size_t pos = 0;
  while (pos < in.size() && !complete_) {
    if (header_len_ < kHeaderSize) {
      const std::size_t n =
          std::min(kHeaderSize - header_len_, in.size() - pos);
      std::memcpy(header_ + header_len_, in.data() + pos, n);
      header_len_ += n;
      pos += n;
      if (header_len_ < kHeaderSize) break;
      const FrameHeader header = decode_header(header_);
      type_ = header.type;
      payload_left_ = header.length;
      if (payload_left_ == 0) {
        // An empty DATA frame is a no-op; FIN and RST carry nothing.
        if (type_ == FrameType::kData) {
          header_len_ = 0;
        } else {
          complete_ = true;
        }
      }
    } else if (type_ == FrameType::kData) {
      if (produced == out.size()) break;
      const std::size_t n =
          std::min({payload_left_, in.size() - pos, out.size() - produced});
      std::memcpy(out.data() + produced, in.data() + pos, n);
      produced += n;
      pos += n;
      payload_left_ -= n;
      if (payload_left_ == 0) header_len_ = 0;  // the next header follows
    } else {
      const std::size_t want = type_ == FrameType::kDataTraced
                                   ? obs::TraceContext::kWireSize -
                                         control_.size()
                                   : payload_left_;
      const std::size_t n = std::min(want, in.size() - pos);
      control_.insert(control_.end(), in.data() + pos, in.data() + pos + n);
      pos += n;
      payload_left_ -= n;
      if (n < want) break;
      if (type_ != FrameType::kDataTraced) {
        complete_ = true;
        break;
      }
      // The trace-context extension: adopt the context as this thread's
      // ambient one (spans recorded downstream chain to it), and mark the
      // arrival -- same span id as the producer's kNetSend, which is what
      // the exporter turns into a cross-host flow arrow.  The rest of the
      // frame is plain data.
      const auto ctx = obs::TraceContext::decode(control_.data());
      obs::current_trace_context() = ctx;
      DPN_TRACE_EVENT(obs::TraceKind::kNetRecv, "data", ctx.span_id,
                      payload_left_);
      control_ = {};
      type_ = FrameType::kData;
      if (payload_left_ == 0) header_len_ = 0;
    }
  }
  return pos;
}

Frame FrameParser::take_control() {
  Frame frame{type_, std::move(control_)};
  control_ = {};
  header_len_ = 0;
  complete_ = false;
  return frame;
}

Frame FrameReader::read_frame() {
  std::uint8_t header[5];
  std::size_t got = 0;
  while (got < sizeof header) {
    const std::size_t n = in_->read_some({header + got, sizeof header - got});
    if (n == 0) {
      if (got == 0) {
        // Transport ended cleanly between frames: synthesize FIN.
        return Frame{FrameType::kFin, {}};
      }
      throw EndOfStream{"transport ended mid-frame"};
    }
    got += n;
  }
  const FrameHeader decoded = decode_header(header);
  Frame frame;
  frame.type = decoded.type;
  frame.payload.resize(decoded.length);
  if (decoded.length > 0) {
    io::read_fully(*in_, {frame.payload.data(), decoded.length});
  }
  return frame;
}

}  // namespace dpn::net
