#include "core/process.hpp"

#include <exception>
#include <mutex>

#include "obs/flight.hpp"
#include "sched/scheduler.hpp"
#include "support/log.hpp"

namespace dpn::core {

namespace {

/// Runs on_stop + close_all on every exit path (the paper's `finally`).
class StopGuard {
 public:
  explicit StopGuard(std::function<void()> action)
      : action_(std::move(action)) {}
  ~StopGuard() {
    try {
      action_();
    } catch (...) {
      // Cleanup must not mask the original failure.
    }
  }

 private:
  std::function<void()> action_;
};

}  // namespace

void IterativeProcess::run() {
  stats()->set_state(obs::ProcessState::kRunning);
  DPN_FLIGHT_TOKEN(obs::FlightKind::kProcessStart, name());
  bool abandoned = false;
  StopGuard guard{[this, &abandoned] {
    // First, so that await_pause() returns even if cleanup blocks.
    finish();
    // Either way the local instance is done: a shipped process's successor
    // carries its own stats object.
    stats()->set_state(obs::ProcessState::kFinished);
    DPN_FLIGHT_TOKEN(obs::FlightKind::kProcessStop, name(),
                     stats()->steps.load(std::memory_order_relaxed));
    if (abandoned) return;  // endpoints belong to the migrated successor
    on_stop();
    close_all();
  }};
  try {
    on_start();
    if (iterations_ > 0) {
      // iterations_ is decremented as steps run so that a process paused
      // and shipped mid-run carries exactly its remaining budget.
      while (iterations_ > 0) {
        if (!pause_point()) {
          abandoned = true;
          return;
        }
        --iterations_;
        step();
        obs::bump(stats()->steps, 1);
      }
    } else {
      for (;;) {
        if (!pause_point()) {
          abandoned = true;
          return;
        }
        step();
        obs::bump(stats()->steps, 1);
      }
    }
  } catch (const IoError&) {
    // Graceful stop: a neighbour closed a channel (Section 3.4), or the
    // deadlock monitor aborted the network.  The guard closes our
    // endpoints, continuing the cascade.
    log::debug("process ", name(), " stopped by I/O");
  }
}

void IterativeProcess::finish() {
  std::scoped_lock lock{state_mutex_};
  state_.store(RunState::kFinished, std::memory_order_release);
  state_waiters_.wake_all();
}

void IterativeProcess::request_pause() {
  std::scoped_lock lock{state_mutex_};
  if (state_.load(std::memory_order_relaxed) == RunState::kIdle) {
    state_.store(RunState::kPauseRequested, std::memory_order_release);
  }
}

bool IterativeProcess::await_pause() {
  std::unique_lock lock{state_mutex_};
  for (;;) {
    const RunState state = state_.load(std::memory_order_relaxed);
    if (state == RunState::kPaused || state == RunState::kFinished) break;
    state_waiters_.wait(lock);
  }
  return state_.load(std::memory_order_relaxed) == RunState::kPaused;
}

void IterativeProcess::resume() {
  std::scoped_lock lock{state_mutex_};
  if (state_.load(std::memory_order_relaxed) != RunState::kPaused) {
    throw UsageError{"resume() on a process that is not paused"};
  }
  state_.store(RunState::kIdle, std::memory_order_release);
  state_waiters_.wake_all();
}

void IterativeProcess::abandon() {
  std::scoped_lock lock{state_mutex_};
  if (state_.load(std::memory_order_relaxed) != RunState::kPaused) {
    throw UsageError{"abandon() on a process that is not paused"};
  }
  state_.store(RunState::kAbandoned, std::memory_order_release);
  state_waiters_.wake_all();
}

bool IterativeProcess::paused() const {
  return state_.load(std::memory_order_acquire) == RunState::kPaused;
}

bool IterativeProcess::park() {
  std::unique_lock lock{state_mutex_};
  // A resume() followed at once by a new request_pause() finds this
  // process still waiting; it parks again without running a step.
  while (state_.load(std::memory_order_relaxed) ==
         RunState::kPauseRequested) {
    state_.store(RunState::kPaused, std::memory_order_release);
    stats()->set_state(obs::ProcessState::kPaused);
    state_waiters_.wake_all();
    while (state_.load(std::memory_order_relaxed) == RunState::kPaused) {
      state_waiters_.wait(lock);
    }
    stats()->set_state(obs::ProcessState::kRunning);
  }
  return state_.load(std::memory_order_relaxed) != RunState::kAbandoned;
}

void IterativeProcess::close_all() {
  for (const auto& in : inputs_) {
    try {
      in->close();
    } catch (...) {
    }
  }
  for (const auto& out : outputs_) {
    try {
      out->close();
    } catch (...) {
    }
  }
}

void IterativeProcess::write_base(serial::ObjectOutputStream& out) const {
  out.write_i64(iterations_);
  out.write_varint(inputs_.size());
  for (const auto& in : inputs_) out.write_object(in);
  out.write_varint(outputs_.size());
  for (const auto& o : outputs_) out.write_object(o);
}

void IterativeProcess::read_base(serial::ObjectInputStream& in) {
  iterations_ = in.read_i64();
  const std::uint64_t n_in = in.read_varint();
  inputs_.clear();
  inputs_.reserve(n_in);
  for (std::uint64_t i = 0; i < n_in; ++i) {
    inputs_.push_back(in.read_object_as<ChannelInputStream>());
    inputs_.back()->set_owner(stats());
  }
  const std::uint64_t n_out = in.read_varint();
  outputs_.clear();
  outputs_.reserve(n_out);
  for (std::uint64_t i = 0; i < n_out; ++i) {
    outputs_.push_back(in.read_object_as<ChannelOutputStream>());
    outputs_.back()->set_owner(stats());
  }
}

std::uint64_t Process::next_instance() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::string Process::actor_name() const {
  std::string name = this->name();
  if (name != type_name()) return name;
  // Cut the type name, not the number that tells instances apart.
  const std::string suffix = "#" + std::to_string(instance_);
  constexpr std::size_t kChars = sizeof(obs::FlightEvent::who) - 1;
  if (name.size() + suffix.size() > kChars) {
    name.resize(kChars - std::min(kChars, suffix.size()));
  }
  return name + suffix;
}

void append_process_snapshots(const Process& process,
                              std::vector<obs::ProcessSnapshot>& out) {
  obs::ProcessSnapshot p;
  p.name = process.name();
  p.state = process.stats()->get_state();
  p.steps = process.stats()->steps.load(std::memory_order_relaxed);
  out.push_back(std::move(p));
  for (const auto& child : process.subprocesses()) {
    if (child) append_process_snapshots(*child, out);
  }
}

void CompositeProcess::add(std::shared_ptr<Process> process) {
  if (!process) throw UsageError{"CompositeProcess::add(nullptr)"};
  processes_.push_back(std::move(process));
}

void CompositeProcess::run() {
  std::mutex failures_mutex;
  std::vector<std::exception_ptr> failures;
  // Child contexts inherit the spawning host's node tag -- a
  // ComputeServer tags its handler thread, and the graph it hosts may
  // fan out arbitrarily deep.
  const std::uint16_t node_tag = obs::flight_node();
  auto body_for = [&failures_mutex, &failures,
                   node_tag](std::shared_ptr<Process> process) {
    return
        [&failures_mutex, &failures, node_tag, process = std::move(process)] {
          obs::flight_set_node(node_tag);
          // Raw Process implementations don't maintain their own stats;
          // bracket them here (IterativeProcess overwrites redundantly).
          process->stats()->set_state(obs::ProcessState::kRunning);
          try {
            process->run();
          } catch (const IoError&) {
            // Graceful stop for raw Process implementations too.
          } catch (...) {
            std::scoped_lock lock{failures_mutex};
            failures.push_back(std::current_exception());
          }
          process->stats()->set_state(obs::ProcessState::kFinished);
        };
  };
  if (sched::Scheduler* scheduler = sched::Scheduler::current()) {
    // Already on the M:N scheduler: components become sibling fibers and
    // this fiber parks on a WaitGroup, so the worker underneath stays
    // free to run the very children being waited for.
    sched::WaitGroup done;
    done.add(processes_.size());
    for (const auto& process : processes_) {
      scheduler->spawn(
          [body = body_for(process), &done] {
            body();
            done.done();
          },
          process->actor_name());
    }
    done.wait();
  } else {
    std::vector<std::jthread> threads;
    threads.reserve(processes_.size());
    for (const auto& process : processes_) {
      threads.emplace_back(body_for(process));
    }
  }  // jthreads join here
  if (!failures.empty()) std::rethrow_exception(failures.front());
}

std::vector<std::shared_ptr<ChannelInputStream>>
CompositeProcess::channel_inputs() const {
  std::vector<std::shared_ptr<ChannelInputStream>> all;
  for (const auto& process : processes_) {
    auto ins = process->channel_inputs();
    all.insert(all.end(), ins.begin(), ins.end());
  }
  return all;
}

std::vector<std::shared_ptr<ChannelOutputStream>>
CompositeProcess::channel_outputs() const {
  std::vector<std::shared_ptr<ChannelOutputStream>> all;
  for (const auto& process : processes_) {
    auto outs = process->channel_outputs();
    all.insert(all.end(), outs.begin(), outs.end());
  }
  return all;
}

void CompositeProcess::write_fields(serial::ObjectOutputStream& out) const {
  out.write_varint(processes_.size());
  for (const auto& process : processes_) out.write_object(process);
}

std::shared_ptr<CompositeProcess> CompositeProcess::read_object(
    serial::ObjectInputStream& in) {
  auto composite = std::make_shared<CompositeProcess>();
  const std::uint64_t n = in.read_varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    composite->add(in.read_object_as<Process>());
  }
  return composite;
}

namespace {
[[maybe_unused]] const bool kCompositeRegistered =
    serial::register_type<CompositeProcess>("dpn.CompositeProcess");
}

}  // namespace dpn::core
