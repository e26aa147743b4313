#include "core/network.hpp"

#include <algorithm>
#include <set>

#include "obs/flight.hpp"
#include "support/log.hpp"

namespace dpn::core {

Network::~Network() {
  // jthread members join on destruction; nothing else to do.
}

void Network::add(std::shared_ptr<Process> process) {
  if (started_) throw UsageError{"Network::add after start"};
  if (!process) throw UsageError{"Network::add(nullptr)"};
  processes_.push_back(std::move(process));
}

std::shared_ptr<Channel> Network::make_channel(ChannelOptions options) {
  auto channel = std::make_shared<Channel>(std::move(options));
  watch(channel);
  return channel;
}

void Network::add_connected(std::shared_ptr<Process> process) {
  if (!process) return;  // slot wired the endpoint into an existing process
  for (const auto& existing : processes_) {
    if (existing == process) return;
  }
  add(std::move(process));
}

void Network::watch(const std::shared_ptr<Channel>& channel) {
  std::scoped_lock lock{channels_mutex_};
  channels_.push_back(channel->state());
}

void Network::enable_monitor(MonitorOptions options) {
  monitor_enabled_ = true;
  options_ = options;
}

void Network::set_scheduler(sched::SchedulerOptions options) {
  if (started_) throw UsageError{"Network::set_scheduler after start"};
  // Validate eagerly so a bad DPN_STACK_KB fails at configuration, not
  // halfway through spawning a graph.
  options.resolved_stack_bytes();
  sched_options_ = std::move(options);
}

void Network::start() {
  if (started_) throw UsageError{"Network::start called twice"};
  started_ = true;

  // Discover channels referenced by the processes (deduplicated with any
  // explicitly watched ones).
  {
    std::scoped_lock lock{channels_mutex_};
    std::set<const ChannelState*> seen;
    for (const auto& state : channels_) seen.insert(state.get());
    for (const auto& process : processes_) {
      for (const auto& in : process->channel_inputs()) {
        if (seen.insert(in->state().get()).second) {
          channels_.push_back(in->state());
        }
      }
      for (const auto& out : process->channel_outputs()) {
        if (seen.insert(out->state().get()).second) {
          channels_.push_back(out->state());
        }
      }
    }
  }

  // Flight-recorder topology: bind every process to the channels it
  // reads/writes *before* anything runs.  The wait-for reconstruction
  // needs these static edges -- in an all-blocked-reading deadlock no
  // writer ever blocked, so dynamic block events alone cannot attribute
  // the channels' writers.
  obs::flight_install_crash_handler();
  for (const auto& process : processes_) {
    for (const auto& in : process->channel_inputs()) {
      obs::flight_record_named(obs::FlightKind::kChanReader,
                               process->actor_name(), in->state()->id);
    }
    for (const auto& out : process->channel_outputs()) {
      obs::flight_record_named(obs::FlightKind::kChanWriter,
                               process->actor_name(), out->state()->id);
    }
  }

  if (sched_options_.mode == sched::SchedMode::kThreadPerProcess &&
      processes_.size() > sched_options_.max_threads) {
    throw UsageError{
        "thread-per-process mode refuses " + std::to_string(processes_.size()) +
        " processes (cap " + std::to_string(sched_options_.max_threads) +
        "); use SchedMode::kWorkSteal (DPN_SCHED=mn) for graphs this size"};
  }

  live_.store(processes_.size());
  // Process contexts inherit the starter's node tag (see
  // CompositeProcess::run).
  const std::uint16_t node_tag = obs::flight_node();
  if (sched_options_.mode == sched::SchedMode::kWorkSteal) {
    sched::SchedulerOptions options = sched_options_;
    options.worker_init = [node_tag] { obs::flight_set_node(node_tag); };
    scheduler_ = std::make_unique<sched::Scheduler>(options);
    graph_done_.add(processes_.size());
    for (const auto& process : processes_) {
      // The phase hook keeps ProcessStats honest about scheduler-side
      // states the process body cannot see: sitting runnable on a deque,
      // and migrating between workers.
      auto stats = process->stats();
      scheduler_->spawn(
          [this, process] {
            try {
              process->run();
            } catch (const IoError&) {
              // Graceful stop.
            } catch (...) {
              std::scoped_lock lock{failures_mutex_};
              failures_.push_back(std::current_exception());
            }
            live_.fetch_sub(1);
            graph_done_.done();
          },
          process->actor_name(),
          [stats](sched::FiberPhase phase) {
            switch (phase) {
              case sched::FiberPhase::kReady:
                stats->set_state(obs::ProcessState::kRunnable);
                break;
              case sched::FiberPhase::kRunning:
                stats->set_state(obs::ProcessState::kRunning);
                break;
              case sched::FiberPhase::kStolen:
                obs::bump(stats->stolen, 1);
                break;
            }
          });
    }
  } else {
    threads_.reserve(processes_.size());
    for (const auto& process : processes_) {
      threads_.emplace_back([this, process, node_tag] {
        obs::flight_set_node(node_tag);
        obs::flight_set_actor(process->actor_name());
        try {
          process->run();
        } catch (const IoError&) {
          // Graceful stop.
        } catch (...) {
          std::scoped_lock lock{failures_mutex_};
          failures_.push_back(std::current_exception());
        }
        live_.fetch_sub(1);
      });
    }
  }
  if (monitor_enabled_) {
    monitor_thread_ = std::jthread{[this](std::stop_token st) {
      monitor_loop(st);
    }};
  }
}

void Network::join() {
  if (scheduler_) {
    // Quiescence-based termination: wait for every top-level fiber to
    // report done, then let the scheduler drain -- which also covers
    // detached stragglers a process spawned at runtime (Sift's filters).
    graph_done_.wait();
    scheduler_->shutdown();
  }
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  if (monitor_thread_.joinable()) {
    monitor_thread_.request_stop();
    monitor_thread_.join();
  }
  std::scoped_lock lock{failures_mutex_};
  if (!failures_.empty()) std::rethrow_exception(failures_.front());
}

obs::NetworkSnapshot Network::snapshot() const {
  obs::NetworkSnapshot snap;
  snap.live = live_.load();
  snap.outcome = static_cast<std::uint8_t>(outcome_.load());
  snap.growth_events = growth_events_.load();
  if (scheduler_) {
    const sched::Scheduler::Counters counters = scheduler_->counters();
    snap.sched_workers = scheduler_->workers();
    snap.sched_spawned = counters.spawned;
    snap.sched_completed = counters.completed;
    snap.sched_steals = counters.steals;
    snap.sched_dispatches = counters.dispatches;
    snap.sched_parks = counters.parks;
  }
  for (const auto& process : processes_) {
    append_process_snapshots(*process, snap.processes);
  }
  std::scoped_lock lock{channels_mutex_};
  snap.channels.reserve(channels_.size());
  for (const auto& state : channels_) {
    snap.channels.push_back(snapshot_channel(*state));
  }
  snap.fill_fault_counters();
  snap.fill_transport_counters();
  return snap;
}

std::string Network::channel_report() const { return snapshot().to_string(); }

StallState Network::stall_state() const {
  const obs::NetworkSnapshot snap = snapshot();
  StallState state;
  state.live = snap.live;
  state.blocked_readers = snap.blocked_readers();
  state.blocked_writers = snap.blocked_writers();
  if (const obs::ChannelSnapshot* victim = snap.smallest_write_blocked()) {
    state.smallest_blocked_capacity = victim->capacity;
  }
  for (const obs::ChannelSnapshot& c : snap.channels) {
    state.progress += c.bytes_written + c.bytes_read + c.typed_popped;
  }
  return state;
}

bool Network::grow_smallest_blocked(std::uint64_t capacity) {
  // The victim is chosen as stall_state() chose it: from a snapshot, in
  // bytes (a live typed ring counts slots x wire size).
  const obs::NetworkSnapshot snap = snapshot();
  const obs::ChannelSnapshot* victim = snap.smallest_write_blocked();
  if (victim == nullptr || capacity <= victim->capacity) return false;
  std::shared_ptr<ChannelState> state;
  {
    std::scoped_lock lock{channels_mutex_};
    for (const auto& watched : channels_) {
      if (watched->id == victim->id) state = watched;
    }
  }
  if (state->typed && !state->typed->demoted()) {
    io::TypedRingBase& ring = *state->typed;
    ring.grow(std::max<std::size_t>(capacity / ring.value_bytes(),
                                    ring.capacity() + 1));
  } else {
    state->pipe->grow(capacity);
  }
  growth_events_.fetch_add(1);
  DPN_FLIGHT_TOKEN(obs::FlightKind::kMonitorGrow, victim->label,
                   victim->capacity, capacity);
  log::debug("network: grew channel '", victim->label, "' ",
             victim->capacity, " -> ", capacity, " bytes");
  return true;
}

void Network::abort() {
  std::scoped_lock lock{channels_mutex_};
  for (const auto& state : channels_) {
    if (state->typed) state->typed->abort();
    if (state->pipe) state->pipe->abort();
  }
}

void Network::monitor_loop(std::stop_token stop) {
  StallRule rule{options_};
  while (!stop.stop_requested() && live_.load() > 0) {
    std::this_thread::sleep_for(options_.poll_interval);
    const StallVerdict verdict = rule.decide({stall_state()});
    if (verdict.action == StallVerdict::Action::kGrow) {
      if (!grow_smallest_blocked(verdict.capacity)) continue;
      DeadlockOutcome none = DeadlockOutcome::kNone;
      outcome_.compare_exchange_strong(none, DeadlockOutcome::kGrown);
    } else if (verdict.action == StallVerdict::Action::kTrueDeadlock) {
      outcome_.store(DeadlockOutcome::kTrueDeadlock);
      report_true_deadlock(verdict, "deadlock");
      if (options_.abort_on_true_deadlock) abort();
      return;
    }
  }
}

StallVerdict StallRule::decide(std::vector<StallState> round) {
  std::uint64_t live = 0, blocked = 0, sent = 0, received = 0;
  std::uint64_t remote_writers = 0;
  std::size_t victim = round.size();
  for (std::size_t i = 0; i < round.size(); ++i) {
    const StallState& s = round[i];
    live += s.live;
    blocked += s.blocked_readers + s.blocked_writers +
               s.blocked_remote_readers + s.blocked_remote_writers;
    sent += s.sent;
    received += s.received;
    remote_writers += s.blocked_remote_writers;
    const bool tighter =
        victim == round.size() ||
        s.smallest_blocked_capacity < round[victim].smallest_blocked_capacity;
    if (s.blocked_writers > 0 && tighter) victim = i;
  }
  const bool stalled = live > 0 && blocked >= live;
  stable_rounds_ = stalled && round == previous_ ? stable_rounds_ + 1 : 0;
  previous_ = std::move(round);
  if (stable_rounds_ == 0) return {};

  StallVerdict verdict;
  if (victim < previous_.size()) {
    // Artificial deadlock: grow the tightest write-blocked channel, unless
    // that passes the cap (unbounded accumulation).
    const std::uint64_t old_capacity =
        previous_[victim].smallest_blocked_capacity;
    verdict.capacity = std::max(
        static_cast<std::uint64_t>(static_cast<double>(old_capacity) *
                                   options_.growth_factor),
        old_capacity + 1);
    verdict.node = victim;
    verdict.action = verdict.capacity <= options_.max_channel_capacity
                         ? StallVerdict::Action::kGrow
                         : StallVerdict::Action::kTrueDeadlock;
  } else if (remote_writers > 0) {
    // A producer waits on an exhausted remote window: the distributed
    // analogue of a full pipe.
    verdict.action = StallVerdict::Action::kGrowRemote;
  } else if (sent == received || stable_rounds_ >= 8) {
    // Everyone waits to read and nothing that could wake a reader is in
    // flight (or the stall outlived any frame still landing).
    verdict.action = StallVerdict::Action::kTrueDeadlock;
  } else {
    return verdict;
  }
  reset();
  return verdict;
}

void report_true_deadlock(const StallVerdict& verdict,
                          std::string_view dump_reason) {
  const bool capped = verdict.capacity != 0;
  const std::string_view why = capped ? "capacity-cap" : "all-reading";
  if (capped) {
    log::warn("true deadlock: growth to ", verdict.capacity,
              " bytes passes the capacity cap");
  } else {
    log::warn("true deadlock: every process is blocked reading");
  }
  obs::flight_record_named(obs::FlightKind::kDeadlockAbort, why,
                           verdict.capacity);
  const std::string dump = obs::flight_dump(dump_reason);
  if (!dump.empty()) log::warn("flight dump written to ", dump);
}

}  // namespace dpn::core
