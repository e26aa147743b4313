#include "dist/ddm.hpp"

#include <algorithm>

#include "io/data.hpp"
#include "obs/flight.hpp"
#include "support/log.hpp"

namespace dpn::dist {
namespace {

enum class Op : std::uint8_t {
  kPoll = 1,
  kGrow = 2,
  kAbort = 3,
  kShutdown = 4,
  kGrowRemote = 5,
};

void write_state(io::DataOutputStream& out, const AgentState& state) {
  out.write_u64(state.live);
  out.write_u64(state.blocked_local_readers);
  out.write_u64(state.blocked_local_writers);
  out.write_u64(state.blocked_remote_readers);
  out.write_u64(state.blocked_remote_writers);
  out.write_bool(state.has_write_blocked);
  out.write_u64(state.smallest_blocked_capacity);
  out.write_u64(state.bytes_sent);
  out.write_u64(state.bytes_received);
}

AgentState read_state(io::DataInputStream& in) {
  AgentState state;
  state.live = in.read_u64();
  state.blocked_local_readers = in.read_u64();
  state.blocked_local_writers = in.read_u64();
  state.blocked_remote_readers = in.read_u64();
  state.blocked_remote_writers = in.read_u64();
  state.has_write_blocked = in.read_bool();
  state.smallest_blocked_capacity = in.read_u64();
  state.bytes_sent = in.read_u64();
  state.bytes_received = in.read_u64();
  return state;
}

std::uint64_t blocked_total(const AgentState& state) {
  return state.blocked_local_readers + state.blocked_local_writers +
         state.blocked_remote_readers + state.blocked_remote_writers;
}

}  // namespace

struct DeadlockCoordinator::Agent {
  std::string name;
  std::shared_ptr<net::Stream> stream;
  std::unique_ptr<io::DataInputStream> in;
  std::unique_ptr<io::DataOutputStream> out;
  bool alive = true;
};

DeadlockCoordinator::DeadlockCoordinator(Options options)
    : options_(options), listener_(net::default_transport().listen(0)) {
  acceptor_ = std::jthread{[this] { accept_loop(); }};
  poller_ = std::jthread{[this] { poll_loop(); }};
}

DeadlockCoordinator::~DeadlockCoordinator() { stop(); }

std::size_t DeadlockCoordinator::agents_connected() const {
  std::scoped_lock lock{agents_mutex_};
  return agents_.size();
}

void DeadlockCoordinator::stop() {
  if (stopping_.exchange(true)) return;
  listener_->close();
  if (acceptor_.joinable()) acceptor_.join();
  if (poller_.joinable()) poller_.join();
  std::scoped_lock lock{agents_mutex_};
  for (const auto& agent : agents_) {
    if (!agent->alive) continue;
    try {
      agent->out->write_u8(static_cast<std::uint8_t>(Op::kShutdown));
    } catch (const IoError&) {
    }
    agent->stream->close();
  }
  agents_.clear();
}

void DeadlockCoordinator::accept_loop() {
  for (;;) {
    std::shared_ptr<net::Stream> stream;
    try {
      stream = listener_->accept();
    } catch (const NetError&) {
      return;
    }
    try {
      auto agent = std::make_shared<Agent>();
      agent->stream = std::move(stream);
      agent->in = std::make_unique<io::DataInputStream>(
          std::make_shared<net::StreamInput>(agent->stream));
      agent->out = std::make_unique<io::DataOutputStream>(
          std::make_shared<net::StreamOutput>(agent->stream));
      agent->name = agent->in->read_string();
      std::scoped_lock lock{agents_mutex_};
      agents_.push_back(std::move(agent));
      previous_valid_ = false;  // membership changed; restart stability
      log::debug("coordinator: agent '", agents_.back()->name, "' joined");
    } catch (const std::exception& e) {
      log::warn("coordinator: agent handshake failed: ", e.what());
    }
  }
}

void DeadlockCoordinator::poll_loop() {
  while (!stopping_.load()) {
    std::this_thread::sleep_for(options_.poll_interval);
    if (stopping_.load()) return;
    if (!poll_round()) return;
  }
}

bool DeadlockCoordinator::poll_round() {
  std::scoped_lock lock{agents_mutex_};
  if (agents_.empty()) return true;

  std::vector<AgentState> states;
  states.reserve(agents_.size());
  for (const auto& agent : agents_) {
    if (!agent->alive) {
      states.push_back(AgentState{});
      continue;
    }
    try {
      agent->out->write_u8(static_cast<std::uint8_t>(Op::kPoll));
      states.push_back(read_state(*agent->in));
    } catch (const IoError&) {
      agent->alive = false;
      states.push_back(AgentState{});
      previous_valid_ = false;
    }
  }

  std::uint64_t live = 0, blocked = 0, sent = 0, received = 0;
  std::uint64_t remote_writers = 0;
  bool any_write_blocked = false;
  std::size_t victim = agents_.size();
  for (std::size_t i = 0; i < states.size(); ++i) {
    const AgentState& state = states[i];
    live += state.live;
    blocked += blocked_total(state);
    sent += state.bytes_sent;
    received += state.bytes_received;
    remote_writers += state.blocked_remote_writers;
    if (state.has_write_blocked && agents_[i]->alive) {
      if (victim == agents_.size() ||
          state.smallest_blocked_capacity <
              states[victim].smallest_blocked_capacity) {
        victim = i;
      }
      any_write_blocked = true;
    }
  }

  const bool stalled = live > 0 && blocked >= live;
  const bool stable = previous_valid_ && states == previous_states_;
  previous_states_ = std::move(states);
  previous_valid_ = true;
  stable_rounds_ = (stalled && stable) ? stable_rounds_ + 1 : 0;

  if (stable_rounds_ < 1) return true;

  if (any_write_blocked) {
    // Artificial: apply Parks' rule on the node with the tightest
    // write-blocked channel.
    try {
      agents_[victim]->out->write_u8(static_cast<std::uint8_t>(Op::kGrow));
      agents_[victim]->in->read_bool();
      growth_commands_.fetch_add(1);
      if (outcome_.load() == FleetOutcome::kNone) {
        outcome_.store(FleetOutcome::kGrown);
      }
      log::debug("coordinator: told '", agents_[victim]->name,
                 "' to grow its smallest blocked channel");
    } catch (const IoError&) {
      agents_[victim]->alive = false;
    }
    previous_valid_ = false;
    stable_rounds_ = 0;
    return true;
  }

  if (remote_writers > 0) {
    // Someone is blocked writing into a *remote* channel whose window is
    // exhausted: the distributed analogue of a full pipe.  Tell every
    // node to grant bonus credits on its consumer-side segments (the
    // producers' windows grow; over-granting is as harmless as
    // over-growing a buffer).
    for (const auto& agent : agents_) {
      if (!agent->alive) continue;
      try {
        agent->out->write_u8(static_cast<std::uint8_t>(Op::kGrowRemote));
        agent->in->read_bool();
      } catch (const IoError&) {
        agent->alive = false;
      }
    }
    growth_commands_.fetch_add(1);
    if (outcome_.load() == FleetOutcome::kNone) {
      outcome_.store(FleetOutcome::kGrown);
    }
    previous_valid_ = false;
    stable_rounds_ = 0;
    return true;
  }

  // Every blocked process is waiting to read.  Before declaring a true
  // deadlock, make sure nothing that could wake a reader is in flight:
  // either the fleet-wide byte counters balance, or the stall has
  // persisted so long that any in-flight frame would have landed.
  if (!(sent == received || stable_rounds_ >= 8)) return true;
  outcome_.store(FleetOutcome::kTrueDeadlock);
  log::warn("coordinator: true distributed deadlock across ",
            agents_.size(), " node(s)");
  obs::flight_record_named(obs::FlightKind::kDeadlockAbort, "fleet",
                           agents_.size());
  const std::string dump = obs::flight_dump("fleet-deadlock");
  if (!dump.empty()) {
    log::warn("coordinator: flight dump written to ", dump);
  }
  if (options_.abort_on_true_deadlock) {
    for (const auto& agent : agents_) {
      if (!agent->alive) continue;
      try {
        agent->out->write_u8(static_cast<std::uint8_t>(Op::kAbort));
        agent->in->read_bool();
      } catch (const IoError&) {
        agent->alive = false;
      }
    }
  }
  previous_valid_ = false;
  stable_rounds_ = 0;
  return true;
}

MonitorAgent::MonitorAgent(std::string name, core::Network& network,
                           std::shared_ptr<NodeContext> node,
                           const std::string& coordinator_host,
                           std::uint16_t coordinator_port)
    : name_(std::move(name)), network_(network), node_(std::move(node)) {
  stream_ = net::dial_with_retry(net::default_transport(), coordinator_host,
                                 coordinator_port, {});
  io::DataOutputStream out{std::make_shared<net::StreamOutput>(stream_)};
  out.write_string(name_);
  server_ = std::jthread{[this] { serve(); }};
}

MonitorAgent::~MonitorAgent() { stop(); }

void MonitorAgent::stop() {
  if (stopping_.exchange(true)) return;
  stream_->close();  // wakes serve()
  if (server_.joinable()) server_.join();
}

AgentState MonitorAgent::snapshot() const {
  AgentState state;
  const core::Network::BlockedCounts counts = network_.blocked_counts();
  state.live = counts.live;
  state.blocked_local_readers = counts.blocked_readers;
  state.blocked_local_writers = counts.blocked_writers;
  state.has_write_blocked = counts.has_write_blocked;
  state.smallest_blocked_capacity = counts.smallest_blocked_capacity;
  const TrafficStats& traffic = *node_->traffic();
  state.blocked_remote_readers = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, traffic.blocked_remote_readers.load()));
  state.blocked_remote_writers = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, traffic.blocked_remote_writers.load()));
  // After the blocked counts: a wait is counted only after the bytes
  // before it are in its endpoint's tally, so this read sees them.
  const TrafficStats::Bytes bytes = traffic.bytes();
  state.bytes_sent = bytes.sent;
  state.bytes_received = bytes.received;
  return state;
}

void MonitorAgent::serve() {
  io::DataInputStream in{std::make_shared<net::StreamInput>(stream_)};
  io::DataOutputStream out{std::make_shared<net::StreamOutput>(stream_)};
  try {
    for (;;) {
      const auto op = static_cast<Op>(in.read_u8());
      switch (op) {
        case Op::kPoll:
          write_state(out, snapshot());
          break;
        case Op::kGrow:
          out.write_bool(network_.grow_smallest_blocked());
          break;
        case Op::kGrowRemote:
          node_->grant_remote_credits();
          out.write_bool(true);
          break;
        case Op::kAbort:
          // Record the abort edge *before* tearing the network down so
          // the ring still holds the blocked-channel events that led
          // here; each node's own dump then explains its side of the
          // fleet-wide cycle.
          obs::flight_record_named(obs::FlightKind::kDeadlockAbort, name_);
          {
            const std::string dump = obs::flight_dump("deadlock-abort");
            if (!dump.empty()) {
              log::warn("monitor agent ", name_,
                        ": flight dump written to ", dump);
            }
          }
          network_.abort();
          node_->abort_remote_channels();
          out.write_bool(true);
          break;
        case Op::kShutdown:
          return;
        default:
          throw IoError{"monitor agent: unknown op"};
      }
    }
  } catch (const IoError&) {
    // Coordinator gone or we were stopped; nothing else to do.
  }
}

}  // namespace dpn::dist
