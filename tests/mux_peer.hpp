#pragma once

// A mux acceptor written against the wire format of docs/PROTOCOLS.md
// Section 8, for tests that read what the transport puts on the wire or
// feed it bytes a real peer would never send.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>

#include "net/socket.hpp"
#include "net/mux.hpp"
#include "support/bytes.hpp"

namespace dpn::net::test {

// Frame types of the mux wire format.
constexpr std::uint8_t kOpen = 0;
constexpr std::uint8_t kData = 1;
constexpr std::uint8_t kDataTraced = 2;
constexpr std::uint8_t kCredit = 3;
constexpr std::uint8_t kFin = 4;
constexpr std::uint8_t kRst = 5;

/// Reads exactly out.size() bytes from a Stream or a raw Socket.
template <class Source>
void read_exact(Source& source, MutableByteSpan out) {
  std::size_t got = 0;
  while (got < out.size()) {
    const std::size_t n = source.read_some(out.subspan(got));
    ASSERT_GT(n, 0u) << "early end of stream";
    got += n;
  }
}

/// One mux frame, encoded.
inline ByteVector encode_frame(std::uint32_t stream, std::uint8_t type,
                               ByteSpan payload) {
  ByteVector frame(9 + payload.size());
  put_u32(frame.data(), stream);
  frame[4] = type;
  put_u32(frame.data() + 5, static_cast<std::uint32_t>(payload.size()));
  std::copy(payload.begin(), payload.end(), frame.begin() + 9);
  return frame;
}

/// Answers a real dialer's preface and hands the dialer's frames back in
/// wire order.  Streams the process dials to it get `window` bytes of
/// window each way unless the dial says otherwise.
class RawPeer {
 public:
  struct Frame {
    std::uint32_t stream = 0;
    std::uint8_t type = 0;
    ByteVector payload;
  };

  explicit RawPeer(std::uint32_t window)
      : window_(window),
        server_(0),
        accepted_(std::async(std::launch::async, [this] {
          Socket socket = server_.accept();
          std::uint8_t preface[5];
          read_exact(socket, {preface, sizeof preface});
          socket.write_all({preface, sizeof preface});  // same magic, version
          return socket;
        })) {}

  /// Dials a new stream of the process's transport to this peer.
  std::shared_ptr<Stream> dial(DialOptions options = {}) {
    if (options.stream_window == 0) options.stream_window = window_;
    auto stream = net::dial("127.0.0.1", server_.port(), options);
    if (accepted_.valid()) socket_ = accepted_.get();
    return stream;
  }

  Frame next() {
    Frame frame;
    std::uint8_t header[9];
    read_exact(socket_, {header, sizeof header});
    frame.stream = get_u32(header);
    frame.type = header[4];
    frame.payload.resize(get_u32(header + 5));
    read_exact(socket_, {frame.payload.data(), frame.payload.size()});
    return frame;
  }

  /// Grants the dialer `bytes` more send window on `stream`.
  void grant(std::uint32_t stream, std::uint32_t bytes) {
    std::uint8_t payload[4];
    put_u32(payload, bytes);
    send(stream, kCredit, {payload, sizeof payload});
  }

  /// Sends one frame of `type` on `stream`, as a peer that may ignore
  /// the protocol's rules.
  void send(std::uint32_t stream, std::uint8_t type, ByteSpan payload) {
    const ByteVector frame = encode_frame(stream, type, payload);
    socket_.write_all({frame.data(), frame.size()});
  }

  /// Sends raw bytes: frames cut anywhere, or none at all.
  void send_raw(ByteSpan bytes) { socket_.write_all(bytes); }

  /// Closes the connection under the dialer's streams.
  void close() { socket_.close(); }

  /// The stream id of the next OPEN frame (CREDITs before it skipped).
  std::uint32_t next_open() {
    for (;;) {
      Frame frame = next();
      if (frame.type == kOpen) return frame.stream;
    }
  }

  /// The next frame that is not a CREDIT or OPEN.
  Frame next_data_or_fin() {
    for (;;) {
      Frame frame = next();
      if (frame.type != kCredit && frame.type != kOpen) return frame;
    }
  }

 private:
  const std::uint32_t window_;
  ServerSocket server_;
  std::future<Socket> accepted_;
  Socket socket_;
};

}  // namespace dpn::net::test
