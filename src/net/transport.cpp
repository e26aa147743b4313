#include "net/transport.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/metrics.hpp"
#include "support/bytes.hpp"
#include "support/log.hpp"

namespace dpn::net {

void SocketStream::drop_spill(std::size_t n) {
  spill_pos_ += n;
  if (spill_pos_ == spill_.size()) {
    spill_ = {};  // release the buffer once drained
    spill_pos_ = 0;
  }
}

std::size_t SocketStream::read_some(MutableByteSpan out) {
  if (spill_pos_ < spill_.size()) {
    const std::size_t n = std::min(out.size(), spill_.size() - spill_pos_);
    std::memcpy(out.data(), spill_.data() + spill_pos_, n);
    drop_spill(n);
    return n;
  }
  WaitObserver* const observer = observer_.load(std::memory_order_acquire);
  if (observer == nullptr ||
      socket_->wait_readable(std::chrono::milliseconds{0})) {
    return socket_->read_some(out);
  }
  const ParkScope park{observer};
  return socket_->read_some(out);
}

std::size_t SocketStream::read_in_place(ParseFn parse, bool wait) {
  if (spill_pos_ < spill_.size()) {
    const std::size_t taken =
        parse({spill_.data() + spill_pos_, spill_.size() - spill_pos_});
    drop_spill(taken);
    return taken;
  }
  // One receive of whatever is queued; only a receive that finds nothing
  // pending waits, and only that wait counts as a park.  What the parser
  // leaves is kept for the next call.
  std::array<std::uint8_t, 2048> received;
  std::optional<std::size_t> n =
      socket_->read_some_now({received.data(), received.size()});
  if (!n) {
    if (!wait) return 0;
    const ParkScope park{observer_.load(std::memory_order_acquire)};
    n = socket_->read_some({received.data(), received.size()});
  }
  const std::size_t taken = parse({received.data(), *n});
  spill_.assign(received.begin() + static_cast<std::ptrdiff_t>(taken),
                received.begin() + static_cast<std::ptrdiff_t>(*n));
  return taken;
}

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kBlocking:
      return "blocking";
    case TransportKind::kMux:
      return "mux";
  }
  return "?";
}

NetworkOptions NetworkOptions::from_env() {
  NetworkOptions options;  // mux is the compiled-in default
  if (const char* env = std::getenv("DPN_TRANSPORT")) {
    const std::string value{env};
    if (value == "blocking") {
      options.transport = TransportKind::kBlocking;
    } else if (value != "mux") {
      log::warn("DPN_TRANSPORT='", value,
                "' not recognized (blocking|mux); keeping mux");
    }
  }
  return options;
}

NetworkOptions& network_options() {
  static NetworkOptions* options = new NetworkOptions{NetworkOptions::from_env()};
  return *options;
}

namespace {

/// The classic backend: one TCP connection per stream, blocking reads and
/// writes on the caller's thread (fiber callers park on the reactor via
/// the Socket layer).  Everything PR 0-6 did, behind the new interface;
/// opt back in with DPN_TRANSPORT=blocking.
class BlockingListener final : public Listener {
 public:
  explicit BlockingListener(std::uint16_t port) : server_(port) {}

  std::shared_ptr<Stream> accept() override {
    return std::make_shared<SocketStream>(server_.accept());
  }

  std::uint16_t port() const override { return server_.port(); }
  void close() override { server_.close(); }
  bool closed() const override { return server_.closed(); }

 private:
  ServerSocket server_;
};

class BlockingTransport final : public Transport {
 public:
  TransportKind kind() const override { return TransportKind::kBlocking; }

  std::shared_ptr<Stream> dial(const std::string& host, std::uint16_t port,
                               const DialOptions& options) override {
    return std::make_shared<SocketStream>(
        Socket::connect(host, port, options.timeout));
  }

  std::shared_ptr<Listener> listen(std::uint16_t port) override {
    return std::make_shared<BlockingListener>(port);
  }
};

}  // namespace

// Defined in net/mux.cpp; declared here so transport.cpp stays the only
// registry of backends.
Transport& mux_transport();

Transport& transport_for(TransportKind kind) {
  switch (kind) {
    case TransportKind::kMux:
      return mux_transport();
    case TransportKind::kBlocking:
      break;
  }
  static BlockingTransport* blocking = new BlockingTransport;
  return *blocking;
}

Transport& default_transport() {
  return transport_for(network_options().transport);
}

std::shared_ptr<Stream> dial_with_retry(Transport& transport,
                                        const std::string& host,
                                        std::uint16_t port,
                                        const fault::RetryPolicy& policy,
                                        std::size_t stream_window) {
  // The whole retry loop is one histogram sample: what the caller
  // experienced, backoff included (same accounting as connect_with_retry).
  const auto start = std::chrono::steady_clock::now();
  DialOptions options;
  options.timeout = policy.connect_timeout;
  options.stream_window = stream_window;
  auto stream = fault::with_retry(
      policy, "dial " + host + ":" + std::to_string(port),
      [&] { return transport.dial(host, port, options); });
  obs::runtime_histograms().connect.record_shared(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return stream;
}

}  // namespace dpn::net
