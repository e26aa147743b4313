#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "net/mux.hpp"

/// A small name service standing in for the RMI registry (paper
/// Section 4.1): compute servers register themselves by name, and client
/// applications look them up to obtain host:port endpoints.
namespace dpn::rmi {

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// The registry server.  One request per connection:
///   REGISTER name host port | LOOKUP name | LIST | UNREGISTER name
///   | REPORT name host port (a NACK: "I could not reach this entry")
///
/// Stale-entry eviction: a server that dies without unregistering leaves
/// a dangling name behind.  Clients NACK an entry after failing to
/// connect to it; once kEvictStrikes reports accumulate against the
/// *current* endpoint of a name, the entry is evicted.  A re-register
/// (or a report naming a different endpoint) resets the count, so a
/// restarted server is never penalised for its predecessor's strikes.
class Registry {
 public:
  /// Matching-endpoint NACKs needed to evict an entry.
  static constexpr int kEvictStrikes = 3;

  explicit Registry(std::uint16_t port = 0);
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  std::uint16_t port() const { return listener_->port(); }

  /// Entries currently registered (server-side view, for tests/tools).
  std::vector<std::pair<std::string, Endpoint>> entries() const;

  void stop();

 private:
  void accept_loop();
  void handle(std::shared_ptr<net::Stream> stream);

  std::shared_ptr<net::Listener> listener_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Endpoint> names_;
  std::unordered_map<std::string, int> strikes_;
  std::atomic<bool> stopping_{false};
  std::jthread acceptor_;
};

/// Client-side operations against a registry.  Connects use the retry
/// policy (capped exponential backoff), so a registry that is briefly
/// unavailable -- restarting, say -- does not fail the caller.
class RegistryClient {
 public:
  RegistryClient(std::string host, std::uint16_t port,
                 fault::RetryPolicy retry = {})
      : host_(std::move(host)), port_(port), retry_(retry) {}

  void register_name(const std::string& name, const Endpoint& endpoint);
  void unregister_name(const std::string& name);
  std::optional<Endpoint> lookup(const std::string& name);
  std::vector<std::string> list();

  /// NACKs `endpoint` as unreachable under `name`.  Returns true if the
  /// report evicted the entry.
  bool report_unreachable(const std::string& name, const Endpoint& endpoint);

 private:
  std::shared_ptr<net::Stream> connect_();

  std::string host_;
  std::uint16_t port_;
  fault::RetryPolicy retry_;
};

}  // namespace dpn::rmi
