#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/channel.hpp"
#include "sched/waiters.hpp"
#include "serial/serial.hpp"

/// Processes (paper Section 3.2).
///
/// A process is a schedulable entity: depending on the host Network's
/// sched::SchedulerOptions it executes either on its own OS thread (the
/// paper's model, SchedMode::kThreadPerProcess) or as a stackful fiber on
/// the M:N work-stealing scheduler (SchedMode::kWorkSteal), which runs it
/// to its next blocking channel operation.  Either way the only blocking
/// operations a determinate process may perform are channel reads and
/// writes, and the process cannot observe which mode it runs under.
/// IterativeProcess supplies the paper's onStart/step/onStop skeleton
/// (Figure 4) and the cascading-termination behaviour of Section 3.4: any
/// IoError stops the process, and a stopping process closes all of its
/// channel endpoints, which in turn stops its neighbours.
namespace dpn::core {

class Process : public serial::Serializable {
 public:
  /// Executes the process to completion.  Called on the process's own
  /// execution context -- a dedicated thread or a scheduler fiber
  /// (CompositeProcess / Network arrange this).
  virtual void run() = 0;

  /// Diagnostic name (thread tags, deadlock reports).
  virtual std::string name() const { return type_name(); }

  /// Per-instance name for flight events and fibers, e.g. "dpn.Scale#14":
  /// name() plus a process-wide instance number, cut to the 15 characters
  /// an event keeps.  A name() other than type_name() already names the
  /// instance and is used as is.
  std::string actor_name() const;

  /// Channel endpoints this process reads from / writes to.  Used for
  /// auto-close on stop and for the internal/boundary channel cut when a
  /// process graph is shipped to another server.
  virtual std::vector<std::shared_ptr<ChannelInputStream>> channel_inputs()
      const {
    return {};
  }
  virtual std::vector<std::shared_ptr<ChannelOutputStream>> channel_outputs()
      const {
    return {};
  }

  /// Child processes, for hierarchical composition (CompositeProcess).
  /// Snapshots recurse through this so a composite's components appear
  /// individually.
  virtual std::vector<std::shared_ptr<Process>> subprocesses() const {
    return {};
  }

  /// Observable state + step counter.  The object is shared: channel
  /// endpoints registered through IterativeProcess::track_* hold a
  /// reference and flip the blocked states around their blocking calls.
  const std::shared_ptr<obs::ProcessStats>& stats() const { return stats_; }

 private:
  std::shared_ptr<obs::ProcessStats> stats_ =
      std::make_shared<obs::ProcessStats>();
  std::uint64_t instance_ = next_instance();

  static std::uint64_t next_instance();
};

/// Base class for the common iterative process shape: one-time setup, a
/// step repeated until an iteration limit or an I/O-signalled stop, then
/// cleanup that closes every tracked stream.
///
/// Iterative processes can also be *paused* at a step boundary, which is
/// the foundation for migrating a process that has already begun
/// executing (the paper's Section 6.1 future work): pause, serialize the
/// parked process (its remaining iteration budget and all mutable state
/// ship with it), start it elsewhere, and abandon the local instance --
/// whose run() then returns without closing the endpoints it no longer
/// owns.  dpn::rmi::migrate() packages this sequence.
///
/// The pause handshake.  The run state is one atomic, and every write to
/// it happens under state_mutex_ with release order: request_pause()
/// (kIdle -> kPauseRequested), the parking process itself (kPauseRequested
/// -> kPaused), resume() (kPaused -> kIdle), abandon() (kPaused ->
/// kAbandoned) and run()'s exit (-> kFinished, on every path, exceptions
/// included).  The step boundary reads it with one acquire load and no
/// lock; only when that load sees kPauseRequested does the process take
/// state_mutex_, re-check, and park on state_waiters_ until resumed or
/// abandoned -- a fiber parks, so a paused process holds no M:N worker.
/// A request made while a step is blocked inside a channel operation is
/// seen at the next boundary, after that operation returns.
class IterativeProcess : public Process {
 public:
  /// iterations <= 0 means "run until stopped by channel closure".
  explicit IterativeProcess(long iterations = 0) : iterations_(iterations) {}

  void run() final;

  /// Asks the process to park at its next step boundary.  Non-blocking;
  /// the process cannot observe the request while blocked inside a
  /// channel operation, so parking happens once the current step's I/O
  /// completes.
  void request_pause();

  /// Blocks until the process is parked (returns true) or its run() exited
  /// first, by any path, an exception included (returns false).
  bool await_pause();

  /// Continues a parked process in place.
  void resume();

  /// Releases a parked process: its run() returns *without* running
  /// on_stop or closing any endpoint.  Use after the process has been
  /// shipped elsewhere -- the endpoints now belong to its successor.
  void abandon();

  /// True while parked at a step boundary.
  bool paused() const;

  long iterations() const { return iterations_; }

  std::vector<std::shared_ptr<ChannelInputStream>> channel_inputs()
      const override {
    return inputs_;
  }
  std::vector<std::shared_ptr<ChannelOutputStream>> channel_outputs()
      const override {
    return outputs_;
  }

 protected:
  /// One-time initialization; default does nothing.
  virtual void on_start() {}

  /// One unit of work.  Throwing IoError (end of stream, channel closed)
  /// is the normal way a process learns it should stop.
  virtual void step() = 0;

  /// One-time cleanup; default does nothing.  Tracked streams are closed
  /// after on_stop regardless of how the process ended.
  virtual void on_stop() {}

  /// Registers a consuming endpoint for auto-close and distribution.
  /// Also makes the endpoint report this process's blocked-reading state.
  const std::shared_ptr<ChannelInputStream>& track_input(
      std::shared_ptr<ChannelInputStream> in) {
    in->set_owner(stats());
    inputs_.push_back(std::move(in));
    return inputs_.back();
  }

  /// Registers a producing endpoint for auto-close and distribution.
  /// Also makes the endpoint report this process's blocked-writing state.
  const std::shared_ptr<ChannelOutputStream>& track_output(
      std::shared_ptr<ChannelOutputStream> out) {
    out->set_owner(stats());
    outputs_.push_back(std::move(out));
    return outputs_.back();
  }

  /// Swaps a tracked input endpoint (used by self-reconfiguring processes
  /// such as Sift, which hands its input to a newly inserted process and
  /// adopts a fresh channel -- paper Figure 8).
  void replace_input(std::size_t index,
                     std::shared_ptr<ChannelInputStream> in) {
    in->set_owner(stats());
    inputs_.at(index) = std::move(in);
  }

  void replace_output(std::size_t index,
                      std::shared_ptr<ChannelOutputStream> out) {
    out->set_owner(stats());
    outputs_.at(index) = std::move(out);
  }

  /// Removes a tracked input from this process without closing it (used
  /// when an endpoint is handed to another process, e.g. Cons splicing its
  /// source directly to its consumer).
  std::shared_ptr<ChannelInputStream> release_input(std::size_t index) {
    auto in = std::move(inputs_.at(index));
    inputs_.erase(inputs_.begin() + static_cast<std::ptrdiff_t>(index));
    return in;
  }

  std::shared_ptr<ChannelOutputStream> release_output(std::size_t index) {
    auto out = std::move(outputs_.at(index));
    outputs_.erase(outputs_.begin() + static_cast<std::ptrdiff_t>(index));
    return out;
  }

  const std::shared_ptr<ChannelInputStream>& input(std::size_t index) const {
    return inputs_.at(index);
  }
  const std::shared_ptr<ChannelOutputStream>& output(
      std::size_t index) const {
    return outputs_.at(index);
  }
  std::size_t input_count() const { return inputs_.size(); }
  std::size_t output_count() const { return outputs_.size(); }

  /// Closes all tracked endpoints; called automatically after on_stop but
  /// available to steps that terminate early.
  void close_all();

  /// Serialization helper for subclasses: writes iteration limit and the
  /// tracked endpoints; mirror with read_base in a read_object factory.
  void write_base(serial::ObjectOutputStream& out) const;
  void read_base(serial::ObjectInputStream& in);

 private:
  enum class RunState : std::uint8_t {
    kIdle,            // not started (or started and not asked to pause)
    kPauseRequested,  // will park at the next step boundary
    kPaused,          // parked; waiting for resume or abandon
    kAbandoned,       // shipped away; run() exits without cleanup
    kFinished,        // run() completed
  };

  /// The step boundary: one acquire load, and the slow path only when a
  /// pause was requested.  Returns false when the process was abandoned
  /// while parked (run() must exit silently).
  bool pause_point() {
    return state_.load(std::memory_order_acquire) !=
               RunState::kPauseRequested ||
           park();
  }

  /// pause_point's slow path: parks under state_mutex_ until resumed or
  /// abandoned.
  bool park();

  /// Publishes the final state and wakes await_pause().
  void finish();

  long iterations_;
  std::vector<std::shared_ptr<ChannelInputStream>> inputs_;
  std::vector<std::shared_ptr<ChannelOutputStream>> outputs_;

  std::mutex state_mutex_;
  /// The parked process and await_pause() callers; every state change
  /// wakes them all to re-check.
  sched::Waiters state_waiters_;
  /// Written only under state_mutex_ (release); see "The pause handshake".
  std::atomic<RunState> state_{RunState::kIdle};
};

/// Appends the observability rows for a process and (recursively) its
/// subprocesses: composite components appear individually, since each is
/// its own execution context with its own blocked/running state.
void append_process_snapshots(const Process& process,
                              std::vector<obs::ProcessSnapshot>& out);

/// Hierarchical composition (paper Section 3.2): each component keeps its
/// own execution context (thread or fiber), so composing processes can
/// never introduce deadlock.
class CompositeProcess final : public Process {
 public:
  CompositeProcess() = default;

  void add(std::shared_ptr<Process> process);

  /// Runs every component concurrently and waits for all of them: as
  /// sibling fibers when already running on the M:N scheduler, else one
  /// thread per component.  The first non-IoError failure is rethrown
  /// after every component finishes.
  void run() override;

  const std::vector<std::shared_ptr<Process>>& processes() const {
    return processes_;
  }

  std::vector<std::shared_ptr<Process>> subprocesses() const override {
    return processes_;
  }

  std::vector<std::shared_ptr<ChannelInputStream>> channel_inputs()
      const override;
  std::vector<std::shared_ptr<ChannelOutputStream>> channel_outputs()
      const override;

  // --- serialization (shipping a composite ships the whole subgraph) ---
  std::string type_name() const override { return "dpn.CompositeProcess"; }
  void write_fields(serial::ObjectOutputStream& out) const override;
  static std::shared_ptr<CompositeProcess> read_object(
      serial::ObjectInputStream& in);

 private:
  std::vector<std::shared_ptr<Process>> processes_;
};

}  // namespace dpn::core
