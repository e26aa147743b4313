#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "support/histogram.hpp"

/// Runtime observability: the counters every channel and process carries.
///
/// The paper evaluates its runtime with hand-rolled external timing
/// (Section 5.2); dpn::obs instead builds measurement into the runtime, in
/// the spirit of AstraKahn's pressure/progress signals (PAPERS.md): a
/// streaming network scheduler -- and a human debugging one -- needs to see
/// where bytes flow and where processes wait without stopping the world.
///
/// All counters are plain atomics updated with relaxed ordering: they are
/// statistics, not synchronization.  A snapshot reader may observe counts
/// from slightly different instants; what it can never do is block a
/// channel operation.
///
/// Hot-path cost: each counter has exactly ONE writing thread (a channel
/// endpoint belongs to one process -- Kahn discipline; a process's stats
/// belong to its own thread), so increments use the single-writer idiom
/// `store(load(relaxed) + n, relaxed)`, which compiles to a plain add --
/// no lock-prefixed RMW.  Concurrent readers (monitor, snapshot, STATS)
/// just see a slightly stale value.  A plain add is cheap only on a line
/// no other thread writes: a counter that shares its cache line with
/// another process's per-token counter pays a coherence miss per token,
/// which is why the per-token structs here are line-aligned (DESIGN.md
/// §6 item 9).  bench/obs_overhead.cpp measures both: the channel rows
/// against the 3% budget, and BM_ObsStepLoopNeighbours for processes
/// created one after another.
namespace dpn::obs {

/// Single-writer relaxed increment: a plain add on the owning thread,
/// atomic visibility for concurrent snapshot readers.
inline void bump(std::atomic<std::uint64_t>& counter, std::uint64_t n) {
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

/// Per-channel counters, shared by the two endpoints of a channel (they
/// live in core::ChannelState) and updated by whichever endpoints are
/// local.  The blocked-time and wakeup numbers are fed from io::Pipe.
struct ChannelMetrics {
  /// Payload bytes / endpoint write calls on the producing endpoint.
  /// The producer's and consumer's counters sit on separate cache lines:
  /// the two endpoint threads bump them concurrently every token.
  alignas(64) std::atomic<std::uint64_t> bytes_written{0};
  std::atomic<std::uint64_t> tokens_written{0};
  /// Payload bytes / endpoint read calls on the consuming endpoint.
  alignas(64) std::atomic<std::uint64_t> bytes_read{0};
  std::atomic<std::uint64_t> tokens_read{0};

  void on_write(std::size_t bytes) {
    bump(bytes_written, bytes);
    bump(tokens_written, 1);
  }
  void on_read(std::size_t bytes) {
    bump(bytes_read, bytes);
    bump(tokens_read, 1);
  }
};
static_assert(alignof(ChannelMetrics) == 64 && sizeof(ChannelMetrics) == 128,
              "each endpoint's per-token counters sit on a line of their own");

/// What a process is doing right now.  "Blocked" here means "inside a
/// channel operation": Kahn processes either compute or wait on a channel,
/// so the instant a read/write call returns the process is computing
/// again.  Updated with relaxed stores from the process's own thread.
enum class ProcessState : std::uint8_t {
  kIdle = 0,            // constructed, run() not entered
  kRunning = 1,         // computing between channel operations
  kBlockedReading = 2,  // inside a channel read
  kBlockedWriting = 3,  // inside a channel write
  kPaused = 4,          // parked at a step boundary (migration)
  kFinished = 5,        // run() returned
  kRunnable = 6,        // M:N scheduler: ready on a deque, awaiting a worker
};

const char* to_string(ProcessState state);

/// Per-process observable state.  Owned (shared_ptr) by the Process; the
/// channel endpoints the process registers also hold a reference so they
/// can flip the blocked states around their blocking calls.
///
/// `state` and `steps` are written per token by the process's own thread,
/// and processes are made one after another, each allocating its stats,
/// so the object fills a cache line of its own (DESIGN.md §6 item 9):
/// packed, neighbouring processes' per-token writes would share a line.
struct alignas(64) ProcessStats {
  std::atomic<ProcessState> state{ProcessState::kIdle};
  /// Completed IterativeProcess::step() calls.
  std::atomic<std::uint64_t> steps{0};
  /// M:N scheduler only: dispatches of this process's fiber on a
  /// different worker than the previous one (work migrations).  A fiber
  /// is dispatched by one worker at a time, so the single-writer idiom
  /// holds here too -- the writer just changes identity between runs.
  std::atomic<std::uint64_t> stolen{0};

  void set_state(ProcessState s) { state.store(s, std::memory_order_relaxed); }
  ProcessState get_state() const {
    return state.load(std::memory_order_relaxed);
  }
};
static_assert(alignof(ProcessStats) == 64 && sizeof(ProcessStats) == 64,
              "a process's per-token words fill one line of their own");

/// Process-wide latency histograms that are not per-channel: task
/// round-trips (recorded by the par router's ledger and by TaskFuture)
/// and connect/retry wall time (recorded by net::connect_with_retry).
/// Multi-writer, hence record_shared() at every site; mirrored into
/// NetworkSnapshot like fault::stats().
struct RuntimeHistograms {
  LatencyHistogram task_rtt;
  LatencyHistogram connect;
};

RuntimeHistograms& runtime_histograms();

}  // namespace dpn::obs
