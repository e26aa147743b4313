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

void write_state(io::DataOutputStream& out, const core::StallState& state) {
  for (const std::uint64_t field :
       {state.live, state.blocked_readers, state.blocked_writers,
        state.blocked_remote_readers, state.blocked_remote_writers,
        state.smallest_blocked_capacity, state.progress, state.sent,
        state.received}) {
    out.write_u64(field);
  }
}

core::StallState read_state(io::DataInputStream& in) {
  core::StallState state;
  for (std::uint64_t* field :
       {&state.live, &state.blocked_readers, &state.blocked_writers,
        &state.blocked_remote_readers, &state.blocked_remote_writers,
        &state.smallest_blocked_capacity, &state.progress, &state.sent,
        &state.received}) {
    *field = in.read_u64();
  }
  return state;
}

}  // namespace

struct DeadlockCoordinator::Agent {
  explicit Agent(std::shared_ptr<net::Stream> s)
      : stream(std::move(s)), source(stream), sink(stream) {}

  std::string name;
  std::shared_ptr<net::Stream> stream;
  net::StreamInput source;
  net::StreamOutput sink;
  io::DataInputStream in{source};
  io::DataOutputStream out{sink};
  bool alive = true;
};

DeadlockCoordinator::DeadlockCoordinator(core::MonitorOptions options)
    : options_(options), listener_(net::listen(0)) {
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
      agent->out.write_u8(static_cast<std::uint8_t>(Op::kShutdown));
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
      auto agent = std::make_shared<Agent>(std::move(stream));
      agent->name = agent->in.read_string();
      std::scoped_lock lock{agents_mutex_};
      agents_.push_back(std::move(agent));
      rule_.reset();  // membership changed; restart stability
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
    poll_round();
  }
}

void DeadlockCoordinator::poll_round() {
  std::scoped_lock lock{agents_mutex_};
  if (agents_.empty()) return;

  std::vector<core::StallState> round(agents_.size());
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    Agent& agent = *agents_[i];
    if (!agent.alive) continue;  // a lost agent reports an empty state
    try {
      agent.out.write_u8(static_cast<std::uint8_t>(Op::kPoll));
      round[i] = read_state(agent.in);
    } catch (const IoError&) {
      agent.alive = false;
      rule_.reset();
    }
  }
  // Sends one command and returns the agent's reply; false, with the
  // agent marked lost, when its stream fails.
  const auto command = [this](Agent& agent, Op op, std::uint64_t arg = 0) {
    if (!agent.alive) return false;
    try {
      agent.out.write_u8(static_cast<std::uint8_t>(op));
      if (op == Op::kGrow) agent.out.write_u64(arg);
      return agent.in.read_bool();
    } catch (const IoError&) {
      agent.alive = false;
      rule_.reset();
      return false;
    }
  };

  const core::StallVerdict verdict = rule_.decide(std::move(round));
  using Action = core::StallVerdict::Action;
  bool grown = false;
  switch (verdict.action) {
    case Action::kWait:
      return;
    case Action::kGrow:
      grown = command(*agents_[verdict.node], Op::kGrow, verdict.capacity);
      break;
    case Action::kGrowRemote:
      // Over-granting is as harmless as over-growing a buffer.
      for (const auto& agent : agents_) {
        grown = command(*agent, Op::kGrowRemote) || grown;
      }
      break;
    case Action::kTrueDeadlock:
      outcome_.store(core::DeadlockOutcome::kTrueDeadlock);
      core::report_true_deadlock(verdict, "fleet-deadlock");
      if (options_.abort_on_true_deadlock) {
        for (const auto& agent : agents_) command(*agent, Op::kAbort);
      }
      return;
  }
  if (!grown) return;
  growth_commands_.fetch_add(1);
  auto none = core::DeadlockOutcome::kNone;
  outcome_.compare_exchange_strong(none, core::DeadlockOutcome::kGrown);
}

MonitorAgent::MonitorAgent(std::string name, core::Network& network,
                           std::shared_ptr<NodeContext> node,
                           const std::string& coordinator_host,
                           std::uint16_t coordinator_port)
    : name_(std::move(name)), network_(network), node_(std::move(node)) {
  stream_ = net::dial_with_retry(coordinator_host, coordinator_port, {});
  net::StreamOutput sink{stream_};
  io::DataOutputStream out{sink};
  out.write_string(name_);
  server_ = std::jthread{[this] { serve(); }};
}

MonitorAgent::~MonitorAgent() { stop(); }

void MonitorAgent::stop() {
  if (stopping_.exchange(true)) return;
  stream_->close();  // wakes serve()
  if (server_.joinable()) server_.join();
}

core::StallState MonitorAgent::snapshot() const {
  core::StallState state = network_.stall_state();
  const TrafficStats& traffic = *node_->traffic();
  state.blocked_remote_readers = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, traffic.blocked_remote_readers.load()));
  state.blocked_remote_writers = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, traffic.blocked_remote_writers.load()));
  // After the blocked counts: a wait is counted only after the bytes
  // before it are in its endpoint's tally, so this read sees them.
  const TrafficStats::Bytes bytes = traffic.bytes();
  state.sent = bytes.sent + traffic.ends_sent.load();
  state.received = bytes.received + traffic.ends_received.load();
  return state;
}

void MonitorAgent::serve() {
  net::StreamInput source{stream_};
  net::StreamOutput sink{stream_};
  io::DataInputStream in{source};
  io::DataOutputStream out{sink};
  try {
    for (;;) {
      const auto op = static_cast<Op>(in.read_u8());
      switch (op) {
        case Op::kPoll:
          write_state(out, snapshot());
          break;
        case Op::kGrow:
          out.write_bool(network_.grow_smallest_blocked(in.read_u64()));
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
