#include "net/transport.hpp"

#include "obs/metrics.hpp"

namespace dpn::net {

NetworkOptions& network_options() {
  static NetworkOptions* options = new NetworkOptions;
  return *options;
}

// Defined in net/mux.cpp.
Transport& mux_transport();

Transport& default_transport() { return mux_transport(); }

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
