#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/channel.hpp"
#include "core/process.hpp"
#include "obs/snapshot.hpp"
#include "sched/scheduler.hpp"

/// Top-level execution of a process network, plus the buffer-management
/// procedure of paper Section 3.5 / [13] (Parks' bounded scheduling).
namespace dpn::core {

/// Outcome of a monitored run.
enum class DeadlockOutcome {
  kNone,          // network completed (or is still running) without stalls
  kGrown,         // at least one artificial (write-blocked) deadlock was
                  // resolved by growing a channel
  kTrueDeadlock,  // every process was blocked reading: unresolvable
};

/// Knobs of Parks' rule, shared by the local monitor and
/// dist::DeadlockCoordinator.
struct MonitorOptions {
  /// Polling cadence.  A verdict needs two consecutive identical stalled
  /// polls, so worst-case latency is ~2 polls.
  std::chrono::milliseconds poll_interval{2};
  /// Growth factor applied to the smallest write-blocked channel.
  double growth_factor = 2.0;
  /// Hard ceiling on any single channel's capacity; exceeding it is
  /// treated as a true deadlock (unbounded accumulation, e.g. Fig 12 run
  /// without a consumer limit).
  std::size_t max_channel_capacity = 1u << 24;
  /// Abort the network (wake every waiter with Interrupted) when a true
  /// deadlock is found.  Otherwise the monitor just records it.
  bool abort_on_true_deadlock = true;
};

/// One node's stall state at one poll.  Blocked counts are exact: a
/// waiter counts only while its wait condition holds (io::Pipe,
/// io::TypedRing).  The remote fields stay zero on a node without a
/// dist::NodeContext.
struct StallState {
  std::uint64_t live = 0;  // unfinished processes
  std::uint64_t blocked_readers = 0;  // on local channels
  std::uint64_t blocked_writers = 0;
  std::uint64_t blocked_remote_readers = 0;
  std::uint64_t blocked_remote_writers = 0;
  /// Bytes of the smallest write-blocked local channel (0: none).
  std::uint64_t smallest_blocked_capacity = 0;
  /// Bytes written and read plus typed values popped, over every local
  /// channel: moves whenever a token does.
  std::uint64_t progress = 0;
  /// Remote-channel traffic: bytes plus stream ends, each counted by
  /// the producer when sent and by the consumer when taken.
  std::uint64_t sent = 0;
  std::uint64_t received = 0;

  bool operator==(const StallState&) const = default;
};

/// What one poll round asks of its caller.
struct StallVerdict {
  enum class Action : std::uint8_t { kWait, kGrow, kGrowRemote, kTrueDeadlock };
  Action action = Action::kWait;
  /// kGrow: the node owning the victim.
  std::size_t node = 0;
  /// kGrow: the victim's new capacity in bytes.  kTrueDeadlock: the
  /// growth the capacity cap refused, or 0 when everyone was reading.
  std::uint64_t capacity = 0;
};

/// Parks' rule ([13], paper Section 3.5) over a fleet: the one decision
/// procedure behind the local monitor, which is a fleet of one, and
/// dist::DeadlockCoordinator, which polls one state per node.  A round is
/// stalled when every live process is blocked; the rule acts only on two
/// consecutive identical stalled rounds, so nothing moved in between.
/// Then it grows the smallest write-blocked local channel, else grants
/// remote credit to write-blocked remote channels, else -- once nothing
/// is in flight -- declares a true deadlock.
class StallRule {
 public:
  explicit StallRule(const MonitorOptions& options) : options_(options) {}

  StallVerdict decide(std::vector<StallState> round);
  /// Forgets the previous round (fleet membership changed).
  void reset() {
    previous_.clear();
    stable_rounds_ = 0;
  }

 private:
  MonitorOptions options_;
  std::vector<StallState> previous_;
  std::size_t stable_rounds_ = 0;
};

/// Logs a true-deadlock verdict and writes the flight post-mortem
/// `dpn-flight-<dump_reason>-<pid>.txt` before any waiter is woken: the
/// block events still standing in the rings are the wait-for graph.
void report_true_deadlock(const StallVerdict& verdict,
                          std::string_view dump_reason);

/// Runs a set of processes -- one thread per process (the paper's model)
/// or as fibers on the M:N work-stealing scheduler, per set_scheduler() /
/// the DPN_SCHED environment default -- and optionally watches their
/// channels for artificial deadlock.
///
/// Determining buffer capacities that avoid artificial deadlock is
/// undecidable (Section 3.5), so the monitor implements the dynamic rule
/// from [13]: when every process is blocked and at least one is blocked
/// *writing*, grow the smallest full channel and continue; when every
/// process is blocked *reading*, the network is truly deadlocked.
class Network {
 public:
  Network() = default;
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Adds a process to run.  Its channel endpoints are discovered through
  /// Process::channel_inputs/outputs for monitoring.
  void add(std::shared_ptr<Process> process);

  /// Convenience: creates a channel and registers it with the monitor.
  /// Designated initializers make call sites read like the paper's figures:
  ///   network.make_channel({.capacity = 4096, .label = "primes"});
  std::shared_ptr<Channel> make_channel(ChannelOptions options = {});

  /// Fluent graph construction: creates a channel and hands each endpoint
  /// to a slot.  A slot is any invocable taking the endpoint; if it returns
  /// a process (anything convertible to shared_ptr<Process>), that process
  /// is add()ed -- deduplicated, so the same process instance may appear in
  /// several connect() calls as it accumulates endpoints.
  ///
  ///   network.connect(
  ///       [&](auto out) { return std::make_shared<Ramp>(out, 100); },
  ///       [&](auto in) { return std::make_shared<Print>(in); },
  ///       {.capacity = 4096, .label = "numbers"});
  ///
  /// Returns the channel so it can also be kept for wiring by hand.
  template <typename ProducerSlot, typename ConsumerSlot>
  std::shared_ptr<Channel> connect(ProducerSlot&& producer,
                                   ConsumerSlot&& consumer,
                                   ChannelOptions options = {}) {
    auto channel = make_channel(std::move(options));
    attach_slot(std::forward<ProducerSlot>(producer), channel->output());
    attach_slot(std::forward<ConsumerSlot>(consumer), channel->input());
    return channel;
  }

  /// Registers an externally created channel for monitoring.
  void watch(const std::shared_ptr<Channel>& channel);

  /// Enables the deadlock monitor for the next start().
  void enable_monitor(MonitorOptions options = {});

  /// Selects how the next start() executes the processes.  Defaults to
  /// SchedulerOptions::from_env(): thread-per-process unless DPN_SCHED=mn.
  /// Thread mode refuses (UsageError) graphs larger than
  /// options.max_threads; the M:N mode exists precisely for that regime.
  void set_scheduler(sched::SchedulerOptions options);

  /// The M:N scheduler driving this network, or nullptr in
  /// thread-per-process mode / before start().
  sched::Scheduler* scheduler() const { return scheduler_.get(); }

  /// Starts every process (and the monitor, if enabled).
  void start();

  /// Waits for every process to finish.  Rethrows the first non-IoError
  /// process failure.
  void join();

  /// start() + join().
  void run() {
    start();
    join();
  }

  /// Wakes every blocked channel operation with Interrupted.
  void abort();

  DeadlockOutcome outcome() const { return outcome_.load(); }
  std::size_t growth_events() const { return growth_events_.load(); }

  /// Number of processes that have not finished yet.
  std::size_t live_processes() const { return live_.load(); }

  /// Structured view of the whole network at one instant: every process's
  /// observable state and step count, every watched channel's occupancy,
  /// traffic and wait counters.  This is what the deadlock
  /// monitor consumes, what channel_report() renders, and what a
  /// ComputeServer returns for a STATS request (NetworkSnapshot::encode
  /// puts it on the wire).  Never blocks a channel operation: counters are
  /// relaxed atomics plus per-pipe mutex reads (a cut's moment at most).
  obs::NetworkSnapshot snapshot() const;

  /// Human-readable snapshot of every watched channel: label, fill,
  /// capacity, and who is blocked on it.  The deadlock monitor's victim
  /// choice can be audited with this; tests and operators use it to see
  /// where a graph is stuck.  Rendered from snapshot().
  std::string channel_report() const;

  /// This node's input to StallRule, reduced from snapshot().
  StallState stall_state() const;

  /// Grows the smallest write-blocked local channel to `capacity` bytes
  /// (Parks' rule, as a StallVerdict decided it).  Returns false when no
  /// channel is write-blocked now -- e.g. the network finished since the
  /// stall was observed -- or the victim already holds that much.
  bool grow_smallest_blocked(std::uint64_t capacity);

 private:
  void monitor_loop(std::stop_token stop);

  /// connect() plumbing: invoke the slot with the endpoint; a non-void
  /// result is a process to register.
  template <typename Slot, typename Endpoint>
  void attach_slot(Slot&& slot, const std::shared_ptr<Endpoint>& endpoint) {
    static_assert(
        std::is_invocable_v<Slot&&, const std::shared_ptr<Endpoint>&>,
        "connect() slot must be invocable with the channel endpoint");
    using Result =
        std::invoke_result_t<Slot&&, const std::shared_ptr<Endpoint>&>;
    if constexpr (std::is_void_v<Result>) {
      std::forward<Slot>(slot)(endpoint);
    } else {
      static_assert(
          std::is_convertible_v<Result, std::shared_ptr<Process>>,
          "connect() slot must return void or something convertible to "
          "shared_ptr<Process>");
      add_connected(std::forward<Slot>(slot)(endpoint));
    }
  }

  /// add() with instance dedup (and nullptr tolerated: "slot handled it").
  void add_connected(std::shared_ptr<Process> process);

  std::vector<std::shared_ptr<Process>> processes_;
  std::vector<std::shared_ptr<ChannelState>> channels_;
  mutable std::mutex channels_mutex_;

  std::vector<std::jthread> threads_;
  std::jthread monitor_thread_;
  bool monitor_enabled_ = false;
  MonitorOptions options_;
  bool started_ = false;

  sched::SchedulerOptions sched_options_ = sched::SchedulerOptions::from_env();
  std::unique_ptr<sched::Scheduler> scheduler_;
  /// Completion latch for the M:N path: one done() per top-level process
  /// fiber; join() waits here instead of joining threads.
  sched::WaitGroup graph_done_;

  std::atomic<std::size_t> live_{0};
  std::atomic<DeadlockOutcome> outcome_{DeadlockOutcome::kNone};
  std::atomic<std::size_t> growth_events_{0};

  std::mutex failures_mutex_;
  std::vector<std::exception_ptr> failures_;
};

}  // namespace dpn::core
