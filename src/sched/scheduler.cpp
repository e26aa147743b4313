#include "sched/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "obs/flight.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

// Sanitizer builds switch with plain swapcontext: the sanitizers' fiber
// hooks are proven on ucontext, not on _setjmp/_longjmp across stacks.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define DPN_UCONTEXT_SWITCH 1
#endif

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace dpn::sched {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Spin hint for the (nanoseconds-scale) switch-out window.
inline void cpu_relax() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

#if defined(__SANITIZE_THREAD__)
inline void tsan_switch(void* fiber) {
  if (fiber != nullptr) __tsan_switch_to_fiber(fiber, 0);
}
#else
inline void tsan_switch(void*) {}
#endif

// ASan keeps one stack range per thread; every switch announces the
// stack it is about to run on (start) and confirms the landing (finish),
// or ASan reports the fiber's frames as stack overflows and misses real
// lifetime bugs on fiber stacks -- where Waiters' nodes live.
#if defined(__SANITIZE_ADDRESS__)
inline void asan_start_switch(void** fake_stack, const void* bottom,
                              std::size_t size) {
  __sanitizer_start_switch_fiber(fake_stack, bottom, size);
}
inline void asan_finish_switch(void* fake_stack, const void** bottom_old,
                               std::size_t* size_old) {
  __sanitizer_finish_switch_fiber(fake_stack, bottom_old, size_old);
}
#else
inline void asan_start_switch(void**, const void*, std::size_t) {}
inline void asan_finish_switch(void*, const void**, std::size_t*) {}
#endif

}  // namespace

/// Per-worker state.  The worker's own thread context doubles as the
/// "scheduler context" every fiber switches back to.
struct Worker {
  Scheduler* scheduler = nullptr;
  unsigned index = 0;
  ucontext_t loop_context{};  // swapcontext target (TSan build only)
  jmp_buf loop_jump{};        // fast switch target: set per dispatch
  void* tsan_fiber = nullptr;  // the worker thread's own TSan fiber
  // ASan: the worker thread's stack, learned when a fiber lands from it,
  // and the worker's fake stack while a fiber runs.
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  void* asan_fake_stack = nullptr;
  WorkStealDeque deque;
  std::uint64_t rng = 0;  // xorshift state for victim selection
  std::jthread thread;    // last member: joins before the rest dies
};

namespace {

// Worker-thread identity.  All post-switch reads go through the noinline
// accessors below: a fiber that suspends on worker A and resumes on
// worker B must not reuse a TLS address the compiler cached before the
// switch, and a non-inlined call is recomputed from scratch.
thread_local Worker* t_worker = nullptr;
thread_local Fiber* t_current = nullptr;

[[gnu::noinline]] Worker* current_worker_slow() { return t_worker; }
[[gnu::noinline]] Fiber* current_fiber_slow() { return t_current; }

}  // namespace

namespace detail {

/// Switches the calling fiber out to its worker's scheduler loop.  All
/// thread-local reads happen inside this non-inlined frame, freshly, on
/// whatever thread is running the fiber right now.
///
/// Fast path: _setjmp records the suspension point (registers only, no
/// sigprocmask syscall) and _longjmp re-enters the dispatching worker's
/// run_fiber frame, which is still live underneath us.  Sanitizer
/// builds keep full swapcontext so the shadow stacks track the switch
/// through the sanitizers' proven ucontext hooks.
[[gnu::noinline]] void switch_out(Fiber* self) {
  Worker* worker = current_worker_slow();
  tsan_switch(worker->tsan_fiber);
  // A finished fiber's stack is never entered again: no fake stack to keep.
  asan_start_switch(self->finished_ ? nullptr : &self->asan_fake_stack_,
                    worker->stack_bottom, worker->stack_size);
#if defined(DPN_UCONTEXT_SWITCH)
  swapcontext(&self->context_, &worker->loop_context);
#else
  if (_setjmp(self->jump_) == 0) _longjmp(worker->loop_jump, 1);
#endif
  // Resumed -- possibly on a different worker.  Nothing thread-local may
  // be touched here; the caller re-derives everything it needs.
  land(self);
}

/// The first thing a fiber does on arriving at its stack (entry or
/// resume): confirms the switch to ASan and notes the stack of the worker
/// it came from, which it returns to in switch_out.  Empty, and inlined
/// away, in other builds.
#if defined(__SANITIZE_ADDRESS__)
[[gnu::noinline]] void land(Fiber* self) {
  Worker* worker = current_worker_slow();
  asan_finish_switch(self->asan_fake_stack_, &worker->stack_bottom,
                     &worker->stack_size);
}
#else
void land(Fiber*) {}
#endif

}  // namespace detail

namespace {
using detail::switch_out;
}  // namespace

// --- Fiber ------------------------------------------------------------------

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes,
             std::string name, std::function<void(FiberPhase)> on_phase)
    : body_(std::move(body)),
      on_phase_(std::move(on_phase)),
      name_(std::move(name)),
      stack_(new std::byte[stack_bytes]),
      stack_size_(stack_bytes) {
  if (getcontext(&context_) != 0) {
    throw UsageError{"getcontext failed for fiber"};
  }
  context_.uc_stack.ss_sp = stack_.get();
  context_.uc_stack.ss_size = stack_size_;
  context_.uc_link = nullptr;  // entry() never returns; it switches out
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::entry), 0);
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_create_fiber(0);
  if (!name_.empty()) __tsan_set_fiber_name(tsan_fiber_, name_.c_str());
#endif
}

Fiber::~Fiber() {
#if defined(__SANITIZE_THREAD__)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::entry() {
  // The dispatching worker stored us in t_current just before switching.
  Fiber* self = current_fiber_slow();
  detail::land(self);
  try {
    self->body_();
  } catch (const std::exception& e) {
    // Process bodies wrap their own failures; anything escaping to here
    // would otherwise tear the worker down.  Contain and log.
    log::error("fiber '", self->name_, "' escaped exception: ", e.what());
  } catch (...) {
    log::error("fiber '", self->name_, "' escaped unknown exception");
  }
  // Release the (possibly large) captures before the final switch: the
  // worker only deletes the shell after we are gone from this stack.
  self->body_ = nullptr;
  self->finished_ = true;
  switch_out(self);
  // Unreachable: a finished fiber is never dispatched again.
  std::abort();
}

Fiber* current_fiber() { return current_fiber_slow(); }

void make_runnable(Fiber* fiber) { fiber->scheduler_->enqueue(fiber); }

// --- SchedulerOptions -------------------------------------------------------

SchedulerOptions SchedulerOptions::from_env() {
  SchedulerOptions options;
  if (const char* mode = std::getenv("DPN_SCHED")) {
    if (std::strcmp(mode, "mn") == 0 || std::strcmp(mode, "steal") == 0 ||
        std::strcmp(mode, "fibers") == 0) {
      options.mode = SchedMode::kWorkSteal;
    } else if (std::strcmp(mode, "threads") == 0 ||
               std::strcmp(mode, "tpp") == 0) {
      options.mode = SchedMode::kThreadPerProcess;
    } else {
      log::warn("DPN_SCHED='", mode, "' not recognized (mn|threads); ",
                "keeping thread-per-process");
    }
  }
  if (const char* workers = std::getenv("DPN_WORKERS")) {
    options.workers = static_cast<unsigned>(std::strtoul(workers, nullptr, 10));
  }
  return options;
}

std::size_t SchedulerOptions::resolved_stack_bytes() const {
  std::size_t kb = stack_kb;
  if (kb == 0) {
    if (const char* env = std::getenv("DPN_STACK_KB")) {
      kb = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
    }
  }
  if (kb == 0) kb = kDefaultStackKb;
  if (kb < kMinStackKb) {
    throw UsageError{"fiber stack of " + std::to_string(kb) +
                     " KB is below the " + std::to_string(kMinStackKb) +
                     " KB minimum (heap stacks have no guard page)"};
  }
  return kb * 1024;
}

unsigned SchedulerOptions::resolved_workers() const {
  if (workers > 0) return workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// --- WorkStealDeque ---------------------------------------------------------

namespace {
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

WorkStealDeque::WorkStealDeque(std::size_t capacity)
    : ring_(round_up_pow2(std::max<std::size_t>(capacity, 2))),
      mask_(ring_.size() - 1) {}

bool WorkStealDeque::push_bottom(Fiber* fiber) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  if (b - t >= static_cast<std::int64_t>(ring_.size())) return false;
  ring_[static_cast<std::size_t>(b) & mask_].store(fiber,
                                                   std::memory_order_relaxed);
  // seq_cst publish: pairs with the thieves' top/bottom loads and gives
  // pop_bottom's decrement the store-load ordering the algorithm needs.
  bottom_.store(b + 1, std::memory_order_seq_cst);
  return true;
}

Fiber* WorkStealDeque::pop_bottom() {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  if (t > b) {
    // Empty: undo.
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return nullptr;
  }
  Fiber* fiber =
      ring_[static_cast<std::size_t>(b) & mask_].load(std::memory_order_relaxed);
  if (t != b) return fiber;  // more than one element: no race possible
  // Last element: race the thieves for it.
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_seq_cst)) {
    fiber = nullptr;  // a thief got it
  }
  bottom_.store(b + 1, std::memory_order_seq_cst);
  return fiber;
}

Fiber* WorkStealDeque::steal_top() {
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return nullptr;
  Fiber* fiber =
      ring_[static_cast<std::size_t>(t) & mask_].load(std::memory_order_relaxed);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_seq_cst)) {
    return nullptr;  // lost the race; caller retries elsewhere
  }
  return fiber;
}

// --- Scheduler --------------------------------------------------------------

Scheduler::Scheduler(SchedulerOptions options)
    : options_(std::move(options)),
      stack_bytes_(options_.resolved_stack_bytes()) {
  const unsigned n = options_.resolved_workers();
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->scheduler = this;
    worker->index = i;
    worker->rng = 0x9e3779b97f4a7c15ULL * (i + 1) + 1;
    workers_.push_back(std::move(worker));
  }
  // Start the threads only after the vector is complete: workers steal
  // from each other from their first instant.
  for (auto& worker : workers_) {
    worker->thread = std::jthread{[this, w = worker.get()] { worker_main(*w); }};
  }
}

Scheduler::~Scheduler() { shutdown(); }

Fiber* Scheduler::spawn(std::function<void()> body, std::string name,
                        std::function<void(FiberPhase)> on_phase) {
  auto* fiber =
      new Fiber{std::move(body), stack_bytes_, std::move(name),
                std::move(on_phase)};
  fiber->scheduler_ = this;
  live_.fetch_add(1, std::memory_order_relaxed);
  spawned_.fetch_add(1, std::memory_order_relaxed);
  enqueue(fiber);
  return fiber;
}

void Scheduler::enqueue(Fiber* fiber) {
  if (fiber->on_phase_) fiber->on_phase_(FiberPhase::kReady);
  // Runnable instant for the run-queue wait histogram; published to the
  // dispatching worker by the deque/inject handoff below.
  fiber->enqueue_ns_ = steady_ns();
  pending_.fetch_add(1, std::memory_order_seq_cst);
  Worker* worker = current_worker_slow();
  const bool local = worker != nullptr && worker->scheduler == this &&
                     worker->deque.push_bottom(fiber);
  if (!local) {
    std::scoped_lock lock{inject_mutex_};
    inject_.push_back(fiber);
    injects_.fetch_add(1, std::memory_order_relaxed);
  }
  wake_one_worker();
}

void Scheduler::wake_one_worker() {
  // Dekker handshake with the parking path: our pending_ increment is
  // seq_cst-ordered before this idle_workers_ read; a parker's
  // idle_workers_ increment is ordered before its pending_ re-check.
  if (idle_workers_.load(std::memory_order_seq_cst) == 0) return;
  std::scoped_lock lock{idle_mutex_};
  idle_cv_.notify_one();
}

Fiber* Scheduler::pop_inject(Worker& worker) {
  std::scoped_lock lock{inject_mutex_};
  if (inject_.empty()) return nullptr;
  Fiber* fiber = inject_.front();
  inject_.pop_front();
  // Batch-drain: pull extra injected fibers into our deque so 100k
  // spawns from a Network::start do not serialize on this mutex.
  std::size_t moved = 0;
  while (moved < 64 && !inject_.empty()) {
    if (!worker.deque.push_bottom(inject_.front())) break;
    inject_.pop_front();
    ++moved;
  }
  return fiber;
}

Fiber* Scheduler::try_steal(Worker& worker) {
  const std::size_t n = workers_.size();
  if (n <= 1) return nullptr;
  // xorshift64 victim starting point; sweep every other worker once.
  worker.rng ^= worker.rng << 13;
  worker.rng ^= worker.rng >> 7;
  worker.rng ^= worker.rng << 17;
  const std::size_t start = static_cast<std::size_t>(worker.rng) % n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t victim = (start + i) % n;
    if (victim == worker.index) continue;
    if (Fiber* fiber = workers_[victim]->deque.steal_top()) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      return fiber;
    }
  }
  return nullptr;
}

Fiber* Scheduler::find_work(Worker& worker) {
  if (Fiber* fiber = worker.deque.pop_bottom()) return fiber;
  if (Fiber* fiber = pop_inject(worker)) return fiber;
  return try_steal(worker);
}

void Scheduler::worker_main(Worker& worker) {
  t_worker = &worker;
#if defined(__SANITIZE_THREAD__)
  worker.tsan_fiber = __tsan_get_current_fiber();
#endif
#if defined(__linux__)
  if (options_.pin_workers) {
    cpu_set_t set;
    CPU_ZERO(&set);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    CPU_SET(worker.index % hw, &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
#endif
  if (options_.worker_init) options_.worker_init();

  for (;;) {
    if (Fiber* fiber = find_work(worker)) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      run_fiber(worker, fiber);
      continue;
    }
    std::unique_lock lock{idle_mutex_};
    idle_workers_.fetch_add(1, std::memory_order_seq_cst);
    parks_.fetch_add(1, std::memory_order_relaxed);
    obs::flight_record_named(obs::FlightKind::kSchedPark, "worker",
                             worker.index);
    idle_cv_.wait(lock, [&] {
      return stopping_ || pending_.load(std::memory_order_seq_cst) > 0;
    });
    idle_workers_.fetch_sub(1, std::memory_order_relaxed);
    obs::flight_record_named(obs::FlightKind::kSchedUnpark, "worker",
                             worker.index);
    if (stopping_) return;
  }
}

void Scheduler::run_fiber(Worker& worker, Fiber* fiber) {
  // A waker may hand us a fiber whose previous worker has not finished
  // switching it out; wait out that (sub-microsecond) window.  This
  // acquire also pairs with the previous worker's release below, making
  // every byte of fiber state -- stack included -- visible here.
  while (fiber->in_switch_.load(std::memory_order_acquire)) cpu_relax();

  const int last = fiber->last_worker_;
  const bool migrated = last >= 0 && last != static_cast<int>(worker.index);
  if (fiber->on_phase_) {
    if (migrated) fiber->on_phase_(FiberPhase::kStolen);
    fiber->on_phase_(FiberPhase::kRunning);
  }
  if (migrated) {
    obs::flight_record_named(obs::FlightKind::kSchedSteal, fiber->name(),
                             worker.index, static_cast<std::uint64_t>(last));
  }
  // Attribute everything this fiber does (pipe blocks, dials, faults) to
  // its process name, and charge its deque dwell time to the run-queue
  // wait histogram.
  obs::flight_set_actor(fiber->name());
  if (fiber->enqueue_ns_ != 0) {
    const std::uint64_t now = steady_ns();
    if (now > fiber->enqueue_ns_) {
      runq_wait_histogram().record_shared(now - fiber->enqueue_ns_);
    }
    fiber->enqueue_ns_ = 0;
  }
  fiber->last_worker_ = static_cast<int>(worker.index);
  fiber->in_switch_.store(true, std::memory_order_relaxed);
  dispatches_.fetch_add(1, std::memory_order_relaxed);

  t_current = fiber;
  tsan_switch(fiber->tsan_fiber_);
  asan_start_switch(&worker.asan_fake_stack, fiber->stack_.get(),
                    fiber->stack_size_);
#if defined(DPN_UCONTEXT_SWITCH)
  swapcontext(&worker.loop_context, &fiber->context_);
#else
  // _setjmp marks the return point switch_out longjmps to.  First entry
  // onto a fresh stack still goes through swapcontext (the portable way
  // to start executing on new memory, one-time cost per fiber); every
  // later resume is a _longjmp into the fiber's recorded suspension
  // point.  Either way control comes back here as "_setjmp returned 1"
  // when the fiber parks or finishes -- the abandoned swapcontext frame
  // below us is dead weight on this stack, not an unwind problem.
  if (_setjmp(worker.loop_jump) == 0) {
    if (!fiber->started_) {
      fiber->started_ = true;
      ucontext_t scratch;
      swapcontext(&scratch, &fiber->context_);
    } else {
      _longjmp(fiber->jump_, 1);
    }
  }
#endif
  asan_finish_switch(worker.asan_fake_stack, nullptr, nullptr);
  t_current = nullptr;

  // The fiber switched out: it either finished or parked on a wait
  // queue.  Read its verdict *before* releasing in_switch_ -- the
  // instant that flag drops, a suspended fiber may be resumed, finished
  // and freed by another worker.
  const bool finished = fiber->finished_;
  fiber->in_switch_.store(false, std::memory_order_release);
  if (!finished) return;  // a wait queue owns it now

  delete fiber;
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (live_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::scoped_lock lock{quiesce_mutex_};
    quiesce_cv_.notify_all();
  }
}

void Scheduler::wait_quiescent() {
  std::unique_lock lock{quiesce_mutex_};
  quiesce_cv_.wait(lock, [&] {
    return live_.load(std::memory_order_acquire) == 0;
  });
}

void Scheduler::shutdown() {
  wait_quiescent();
  {
    std::scoped_lock lock{idle_mutex_};
    stopping_ = true;
    idle_cv_.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

Scheduler* Scheduler::current() {
  Worker* worker = current_worker_slow();
  return worker != nullptr ? worker->scheduler : nullptr;
}

Scheduler::Counters Scheduler::counters() const {
  Counters c;
  c.spawned = spawned_.load(std::memory_order_relaxed);
  c.completed = completed_.load(std::memory_order_relaxed);
  c.steals = steals_.load(std::memory_order_relaxed);
  c.dispatches = dispatches_.load(std::memory_order_relaxed);
  c.parks = parks_.load(std::memory_order_relaxed);
  c.injects = injects_.load(std::memory_order_relaxed);
  return c;
}

LatencyHistogram& runq_wait_histogram() {
  static LatencyHistogram histogram;
  return histogram;
}

bool spawn_detached(std::function<void()> body, std::string name) {
  Scheduler* scheduler = Scheduler::current();
  if (scheduler == nullptr) return false;
  scheduler->spawn(std::move(body), std::move(name));
  return true;
}

// --- WaitGroup --------------------------------------------------------------

void WaitGroup::add(std::size_t n) {
  std::scoped_lock lock{mutex_};
  count_ += n;
}

void WaitGroup::done() {
  std::scoped_lock lock{mutex_};
  if (count_ == 0) throw UsageError{"WaitGroup::done underflow"};
  if (--count_ == 0) waiters_.wake_all();
}

void WaitGroup::wait() {
  std::unique_lock lock{mutex_};
  while (count_ > 0) waiters_.wait(lock);
}

}  // namespace dpn::sched
