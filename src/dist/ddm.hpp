#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/network.hpp"
#include "dist/node.hpp"
#include "net/mux.hpp"

/// Distributed deadlock management -- the paper's Section 6.2 future work
/// ("we plan to apply those ideas [Parks' bounded scheduling] to our
/// distributed Java implementation"), implemented.
///
/// A local deadlock monitor cannot act on a distributed graph: a process
/// blocked reading a socket is indistinguishable from one waiting for a
/// peer that is happily computing.  The detector therefore aggregates
/// fleet-wide state through a small coordinator:
///
///  * every participating Network runs a MonitorAgent that keeps one
///    transport stream to the DeadlockCoordinator and answers polls with its
///    local stall state: live processes, processes blocked on local
///    channels, processes blocked inside remote channel reads/writes, its
///    local progress count and its cumulative remote-channel traffic sent
///    and received (bytes plus stream ends);
///  * the coordinator feeds each round's states to core::StallRule, the
///    rule the local monitor also runs: a stall needs every live process
///    in the fleet blocked on two consecutive identical rounds; it is
///    artificial when a local channel somewhere is write-blocked (the
///    owning node grows its smallest one) or a remote window is exhausted
///    (every node grants credit); it is a true distributed deadlock when
///    everyone reads and the fleet received all it sent (no frame in
///    flight -- the Mattern-style quiescence test), and then the
///    coordinator tells every agent to abort its network, so the fleet
///    terminates with Interrupted instead of hanging forever.
namespace dpn::dist {

/// The fleet-wide detector.  Owns a transport listener; agents dial in.
class DeadlockCoordinator {
 public:
  explicit DeadlockCoordinator(core::MonitorOptions options = {});
  ~DeadlockCoordinator();

  DeadlockCoordinator(const DeadlockCoordinator&) = delete;
  DeadlockCoordinator& operator=(const DeadlockCoordinator&) = delete;

  std::uint16_t port() const { return listener_->port(); }

  core::DeadlockOutcome outcome() const { return outcome_.load(); }
  std::size_t growth_commands() const { return growth_commands_.load(); }
  std::size_t agents_connected() const;

  /// Stops polling and disconnects every agent.
  void stop();

 private:
  struct Agent;

  void accept_loop();
  void poll_loop();
  void poll_round();

  core::MonitorOptions options_;
  std::shared_ptr<net::Listener> listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<core::DeadlockOutcome> outcome_{core::DeadlockOutcome::kNone};
  std::atomic<std::size_t> growth_commands_{0};

  mutable std::mutex agents_mutex_;
  std::vector<std::shared_ptr<Agent>> agents_;
  core::StallRule rule_{options_};

  std::jthread acceptor_;
  std::jthread poller_;
};

/// The per-node participant: connects a Network (and its NodeContext's
/// remote-channel counters) to a coordinator.  Construct after the
/// network is built; keep alive for the run.
class MonitorAgent {
 public:
  MonitorAgent(std::string name, core::Network& network,
               std::shared_ptr<NodeContext> node,
               const std::string& coordinator_host,
               std::uint16_t coordinator_port);
  ~MonitorAgent();

  MonitorAgent(const MonitorAgent&) = delete;
  MonitorAgent& operator=(const MonitorAgent&) = delete;

  void stop();

 private:
  void serve();
  core::StallState snapshot() const;

  std::string name_;
  core::Network& network_;
  std::shared_ptr<NodeContext> node_;
  std::shared_ptr<net::Stream> stream_;
  std::atomic<bool> stopping_{false};
  std::jthread server_;
};

}  // namespace dpn::dist
