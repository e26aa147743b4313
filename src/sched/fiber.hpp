#pragma once

#include <setjmp.h>
#include <ucontext.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

/// Stackful fibers: the execution contexts of the M:N scheduler.
///
/// A fiber is a process's run() captured as a user-level context with its
/// own (small, heap-allocated, lazily-paged) stack.  Worker threads switch
/// into a fiber to run it and the fiber switches back out when it finishes
/// or when a channel operation would block -- run-to-block execution.  The
/// only suspension points are the ones the runtime itself creates (its
/// sched::Waiters lists), so Kahn's blocking-read discipline
/// is preserved exactly: a process can never observe that it was
/// descheduled.
///
/// Contexts are created with makecontext (portable stack setup), but the
/// steady-state switch is _setjmp/_longjmp: swapcontext saves and
/// restores the signal mask -- two rt_sigprocmask syscalls per switch,
/// ~1 us, which would dominate a fine-grained relay graph -- while
/// _setjmp is a pure register save (tens of nanoseconds).  Only the
/// *first* entry onto a fresh fiber stack pays one swapcontext.  Under
/// ThreadSanitizer and AddressSanitizer the pure-ucontext path is kept
/// (and every switch is annotated through the sanitizers' fiber APIs so
/// per-context shadow stacks stay coherent).
namespace dpn::sched {

class Scheduler;
struct Worker;
class Fiber;

namespace detail {
/// Switches the calling fiber out to its worker's scheduler loop
/// (internal: the suspension half of the run-to-block protocol).
void switch_out(Fiber* self);
/// A fiber's first step after a switch lands it on its stack.
void land(Fiber* self);
}  // namespace detail

/// Scheduler-driven lifecycle transitions surfaced to the owner of a
/// fiber (Network binds these to obs::ProcessStats so snapshots show
/// runnable/stolen states without dpn_sched depending on dpn_obs).
enum class FiberPhase : std::uint8_t {
  kReady,    // made runnable: sitting in a deque awaiting a worker
  kRunning,  // a worker switched into the fiber
  kStolen,   // this dispatch migrated the fiber to a different worker
};

/// One schedulable execution context.  Created by Scheduler::spawn and
/// owned by the runtime: after spawn the pointer is only valid for use
/// with the wait/wake protocol of sched::Waiters (the scheduler frees the
/// fiber when its body returns).
class Fiber {
 public:
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

  const std::string& name() const { return name_; }

 private:
  friend class Scheduler;
  friend void make_runnable(Fiber*);
  friend void detail::switch_out(Fiber*);
  friend void detail::land(Fiber*);

  Fiber(std::function<void()> body, std::size_t stack_bytes,
        std::string name, std::function<void(FiberPhase)> on_phase);

  /// Entry trampoline running on the fiber's own stack.
  static void entry();

  std::function<void()> body_;
  std::function<void(FiberPhase)> on_phase_;
  std::string name_;
  /// The fiber's stack.  Plain heap memory, NOT mmap: 100k fibers must
  /// not exhaust vm.max_map_count, and untouched heap pages cost no RSS,
  /// so a generous reserve is effectively free until used.
  std::unique_ptr<std::byte[]> stack_;
  std::size_t stack_size_ = 0;
  /// Initial context: used once, for the first switch onto the fresh
  /// stack (makecontext is the portable way to start executing there).
  ucontext_t context_{};
  /// Steady-state suspension point (valid once started_): _longjmp here
  /// resumes the fiber without touching the signal mask.
  jmp_buf jump_{};
  bool started_ = false;
  void* tsan_fiber_ = nullptr;
  void* asan_fake_stack_ = nullptr;  // ASan's stack-use-after-return frames

  Scheduler* scheduler_ = nullptr;
  /// Steady-clock stamp of the last enqueue (runnable instant); consumed
  /// by the dispatching worker for the run-queue wait histogram.
  std::uint64_t enqueue_ns_ = 0;
  /// Index of the worker that last ran the fiber; -1 before the first
  /// dispatch.  A dispatch on a different worker is a steal (or a wakeup
  /// landing elsewhere) and is reported as FiberPhase::kStolen.
  int last_worker_ = -1;
  /// True from the instant a worker switches into the fiber until that
  /// worker's scheduler loop regains control after the fiber switched
  /// out.  A waker may requeue a fiber that is still in its (very short)
  /// switch-out window; the next worker spins on this flag before
  /// switching in, which is also the release/acquire edge that publishes
  /// all fiber state across worker migrations.
  std::atomic<bool> in_switch_{false};
  bool finished_ = false;
};

/// The fiber the calling thread is executing, or nullptr.
Fiber* current_fiber();

/// Hands a parked fiber back to its scheduler (sched::Waiters' wake
/// half): pushed on the waking worker's own deque when the waker is a
/// worker (the cache-warm choice -- the data it just produced is right
/// here), else on the scheduler's inject queue.  Safe to call while
/// holding the lock that guarded the wait.
void make_runnable(Fiber* fiber);

}  // namespace dpn::sched
