#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sched/fiber.hpp"
#include "sched/waiters.hpp"
#include "support/histogram.hpp"

/// The M:N work-stealing process scheduler.
///
/// N pinned worker threads execute M fibers (one per dpn::Process),
/// M >> N.  Each worker owns a lock-free Chase-Lev deque: it pushes and
/// pops work at the bottom (LIFO, cache-warm) while idle workers steal
/// from the top (FIFO, oldest first).  Fibers run to their next blocking
/// channel operation; io::Pipe's blocked-reader/writer machinery doubles
/// as the wakeup source -- a read/write that would block suspends the
/// fiber onto the pipe's wait list, and the counterpart operation makes
/// it runnable on the waker's deque.  Termination is quiescence-based:
/// the scheduler is done when no fiber is runnable, running, or suspended
/// (zero live fibers), replacing thread-per-process join-everything.
///
/// Shape follows ponyc's actor runtime (steal queues, offload-on-block,
/// optional CPU pinning) adapted to Kahn blocking semantics; see
/// DESIGN.md section 7 for the protocol walkthrough.
namespace dpn::sched {

/// How a Network (or any process-graph host) executes its processes.
enum class SchedMode : std::uint8_t {
  /// The paper's model and the historical default: every process owns an
  /// OS thread.  Simple, preemptive, but ~8 MB of stack per process caps
  /// a server at a few thousand processes.
  kThreadPerProcess = 0,
  /// M:N fibers on work-stealing workers: the scale mode.
  kWorkSteal = 1,
};

struct SchedulerOptions {
  /// Smallest accepted fiber stack.  Below this even the entry
  /// trampoline plus one DataInputStream frame risks silent overrun
  /// (heap stacks have no guard page -- that is what buys 100k fibers
  /// under vm.max_map_count).
  static constexpr std::size_t kMinStackKb = 16;
  static constexpr std::size_t kDefaultStackKb = 128;
  /// Thread-per-process refusal cap: beyond this many processes the
  /// thread mode refuses to start instead of driving the host into
  /// thread exhaustion.  (At 8 MB of default stack apiece, 16k threads
  /// already reserve 128 GB of address space.)
  static constexpr std::size_t kDefaultThreadCap = 16384;

  SchedMode mode = SchedMode::kThreadPerProcess;
  /// Worker thread count; 0 means hardware_concurrency.
  unsigned workers = 0;
  /// Fiber stack size in KB; 0 means the DPN_STACK_KB environment
  /// override, else kDefaultStackKb.  Values below kMinStackKb are
  /// rejected (UsageError) at scheduler construction.
  std::size_t stack_kb = 0;
  /// Thread-per-process mode: refuse to start more processes than this.
  std::size_t max_threads = kDefaultThreadCap;
  /// Pin worker i to CPU i (mod hardware_concurrency).  Off by default:
  /// on shared CI boxes pinning fights the container scheduler.
  bool pin_workers = false;
  /// Run at the start of every worker thread (Network uses this to
  /// propagate trace node tags without dpn_sched depending on dpn_obs).
  std::function<void()> worker_init;

  /// Environment-configured defaults: DPN_SCHED=mn|threads selects the
  /// mode, DPN_WORKERS the worker count, DPN_STACK_KB the fiber stack.
  static SchedulerOptions from_env();

  /// The stack size this configuration resolves to, after the DPN_STACK_KB
  /// override.  Throws UsageError for sub-minimum values.
  std::size_t resolved_stack_bytes() const;
  unsigned resolved_workers() const;
};

/// Work-stealing deque (Chase-Lev).  The owning worker pushes/pops at the
/// bottom; thieves CAS the top.  Fixed-capacity ring: a full deque is not
/// an error, the excess spills to the scheduler's inject queue.  top_ and
/// bottom_ use seq_cst (the pop/steal race needs the store-load ordering
/// a relaxed+fence formulation would get from fences, which TSan does not
/// model); the slots themselves are relaxed -- cross-worker publication
/// of fiber *state* rides on Fiber::in_switch_, not on the deque.
class WorkStealDeque {
 public:
  explicit WorkStealDeque(std::size_t capacity = 8192);

  /// Owner only.  False when full (caller spills to the inject queue).
  bool push_bottom(Fiber* fiber);
  /// Owner only.  Null when empty.
  Fiber* pop_bottom();
  /// Any thread.  Null when empty or when the race was lost.
  Fiber* steal_top();

 private:
  std::vector<std::atomic<Fiber*>> ring_;
  std::size_t mask_;
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options = {});
  /// Waits for quiescence, then stops and joins the workers.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Creates a fiber for `body` and makes it runnable.  Thread-safe; may
  /// be called from worker fibers (a composite spawning its components)
  /// or from outside (a Network starting its graph).  `on_phase` is
  /// invoked from scheduler context on ready/running/stolen transitions.
  Fiber* spawn(std::function<void()> body, std::string name = {},
               std::function<void(FiberPhase)> on_phase = {});

  /// Blocks the calling (non-worker) thread until zero fibers are live:
  /// none runnable, none running, none suspended on a wait queue.  This
  /// is the quiescence-termination point -- with no runnable work and no
  /// suspended fiber, no future event can originate inside the scheduler.
  void wait_quiescent();

  /// wait_quiescent(), then stops and joins the workers.  Idempotent;
  /// counters remain readable afterwards.
  void shutdown();

  /// The scheduler whose worker is executing the calling thread, or
  /// nullptr off the workers.  CompositeProcess and Sift use this to
  /// spawn children as sibling fibers instead of threads.
  static Scheduler* current();

  struct Counters {
    std::uint64_t spawned = 0;     // fibers created
    std::uint64_t completed = 0;   // fibers whose body returned
    std::uint64_t steals = 0;      // successful steal_top calls
    std::uint64_t dispatches = 0;  // worker -> fiber context switches
    std::uint64_t parks = 0;       // workers that went idle
    std::uint64_t injects = 0;     // fibers routed via the inject queue
  };
  Counters counters() const;

  unsigned workers() const { return static_cast<unsigned>(workers_.size()); }
  std::size_t live_fibers() const {
    return live_.load(std::memory_order_relaxed);
  }
  const SchedulerOptions& options() const { return options_; }

 private:
  friend class Fiber;
  friend void make_runnable(Fiber*);

  void worker_main(Worker& worker);
  /// Dispatch one fiber: spin for its switch-out window, switch in, and
  /// afterwards retire it (finished) or disown it (suspended).
  void run_fiber(Worker& worker, Fiber* fiber);
  Fiber* find_work(Worker& worker);
  Fiber* pop_inject(Worker& worker);
  Fiber* try_steal(Worker& worker);
  void enqueue(Fiber* fiber);
  /// Dekker-style idle handshake: enqueue() bumps pending_ then checks
  /// idle_workers_; a parking worker bumps idle_workers_ then re-checks
  /// pending_ under the idle mutex.  At least one side sees the other.
  void wake_one_worker();

  SchedulerOptions options_;
  std::size_t stack_bytes_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex inject_mutex_;
  std::deque<Fiber*> inject_;

  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::atomic<std::size_t> idle_workers_{0};
  /// Runnable fibers not yet claimed by a worker (deques + inject).
  std::atomic<std::int64_t> pending_{0};
  bool stopping_ = false;

  std::atomic<std::size_t> live_{0};
  std::mutex quiesce_mutex_;
  std::condition_variable quiesce_cv_;

  std::atomic<std::uint64_t> spawned_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> dispatches_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> injects_{0};
};

/// Spawns `body` as a detached fiber on the current worker's scheduler.
/// Returns false when the calling thread is not a scheduler worker -- the
/// caller should fall back to its thread path.  Used by processes that
/// create processes at runtime (Sift inserting a Modulo, Figure 8).
bool spawn_detached(std::function<void()> body, std::string name = {});

/// Process-wide run-queue wait histogram: for every dispatch, the time a
/// fiber sat runnable (enqueue -> worker switch-in).  The scheduling
/// analogue of the pipes' blocked-time histograms -- a growing tail here
/// means the graph is ready to run but starved of workers.  Lands in
/// NetworkSnapshot (`sched_runq`).
LatencyHistogram& runq_wait_histogram();

/// Counting completion latch usable from fibers and plain threads alike:
/// done() may be called anywhere; wait() parks the calling fiber or
/// thread until the count reaches zero.  This is how a
/// composite waits for its component fibers and a Network's join waits
/// for its graph without holding N joinable threads.
class WaitGroup {
 public:
  void add(std::size_t n);
  void done();
  void wait();

 private:
  std::mutex mutex_;
  std::size_t count_ = 0;
  Waiters waiters_;
};

}  // namespace dpn::sched
