#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "support/bytes.hpp"
#include "support/histogram.hpp"

/// Structured introspection of a process network.
///
/// A NetworkSnapshot is the one representation of "what is this graph
/// doing" shared by every consumer: Network::snapshot() produces it, the
/// deadlock monitor decides on it, tests assert on it, operators print
/// it, and the compute-server STATS request serializes it across the wire
/// so a distributed graph is observable per node (docs/OBSERVABILITY.md
/// documents the schema, docs/PROTOCOLS.md the frame).
///
/// The encoding is the project-standard Data-stream format (big-endian
/// primitives, varint lengths) behind a leading version byte.  Both ends
/// of a fleet link the same library, so there is one layout: a decoder
/// rejects any other version with a SerializationError.
namespace dpn::obs {

/// One channel, merged from its ChannelMetrics, its local pipe (if any),
/// and its buffered-endpoint counters (if configured).
struct ChannelSnapshot {
  /// Stable identity of the ChannelState (process-wide monotonic id);
  /// lets a monitor correlate snapshots over time and re-find the live
  /// channel a stall snapshot named.
  std::uint64_t id = 0;
  std::string label;

  // --- topology flags ---
  bool has_pipe = false;       // both endpoints local: a pipe exists here
  bool input_remote = false;   // consuming endpoint shipped away
  bool output_remote = false;  // producing endpoint shipped away
  bool write_closed = false;
  bool read_closed = false;

  // --- occupancy (local pipe only) ---
  std::uint64_t capacity = 0;
  std::uint64_t buffered = 0;       // bytes currently in the pipe
  std::uint64_t occupancy_hwm = 0;  // high-water mark of `buffered`

  // --- traffic (endpoint counters; survive transport swaps) ---
  std::uint64_t bytes_written = 0;
  std::uint64_t tokens_written = 0;  // endpoint write calls
  std::uint64_t bytes_read = 0;
  std::uint64_t tokens_read = 0;  // endpoint read calls

  // --- pressure (local pipe only) ---
  std::uint64_t blocked_read_ns = 0;   // total time readers waited
  std::uint64_t blocked_write_ns = 0;  // total time writers waited
  std::uint64_t reader_wakeups = 0;
  std::uint64_t writer_wakeups = 0;
  std::uint32_t blocked_readers = 0;  // blocked right now
  std::uint32_t blocked_writers = 0;

  // --- wait-time distributions (local pipe only): the shape of the
  // blocked_*_ns totals above, so p50/p95/p99 are reportable ---
  HistogramSnapshot read_block;
  HistogramSnapshot write_block;

  // --- typed fast path (channels built with make_typed_channel only).  While the ring is live the byte pipe is
  // empty, so occupancy/pressure above describe the ring (merged in by
  // snapshot_channel); these add the ring's own accounting.  After a
  // demotion typed_demoted flips and the byte-plane fields take over. ---
  bool has_typed = false;
  bool typed_demoted = false;
  std::uint64_t typed_pushed = 0;    // values that entered the ring
  std::uint64_t typed_popped = 0;    // values that left the ring
  std::uint64_t typed_buffered = 0;  // values in the ring right now
  std::uint64_t typed_capacity = 0;  // ring capacity, in values
};

struct ProcessSnapshot {
  std::string name;
  ProcessState state = ProcessState::kIdle;
  std::uint64_t steps = 0;
};

/// Transport-plane counters of a snapshot.  The obs
/// library sits below net in the dependency order, so it cannot read
/// net::mux_stats() directly; the net library registers a source with
/// set_transport_stats_source() instead, and fill_transport_counters()
/// reads through it (zeros when no transport has been used).
struct TransportStats {
  std::uint64_t mux_connections = 0;
  std::uint64_t mux_streams_active = 0;
  std::uint64_t mux_streams_total = 0;
  std::uint64_t mux_credit_stalls = 0;
  std::uint64_t mux_credit_stall_ns = 0;
};

void set_transport_stats_source(TransportStats (*source)());

struct NetworkSnapshot {
  /// The wire layout's version.  Version 8 is the first that rejects any
  /// other: fields are never appended behind a reader's back.
  static constexpr std::uint8_t kVersion = 9;

  /// Unfinished processes at snapshot time.
  std::uint64_t live = 0;
  /// Deadlock-monitor state (mirrors core::DeadlockOutcome's values).
  std::uint8_t outcome = 0;
  std::uint64_t growth_events = 0;
  /// Remote-channel traffic of the hosting node, when one is attached
  /// (compute servers fill these in for STATS replies).
  std::uint64_t remote_bytes_sent = 0;
  std::uint64_t remote_bytes_received = 0;

  // --- fault counters (mirrors fault::FaultStats, filled from the
  // producing process's fault::stats() so degradation shows up in
  // fleet_stats) ---
  std::uint64_t connect_retries = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t tasks_reissued = 0;
  std::uint64_t workers_lost = 0;
  std::uint64_t lease_expiries = 0;
  std::uint64_t registry_evictions = 0;
  std::uint64_t faults_injected = 0;

  // --- latency plane: process-wide distributions
  // (obs::runtime_histograms()) ---
  HistogramSnapshot task_rtt;
  HistogramSnapshot connect_latency;

  // --- M:N scheduler counters (zero in thread-per-process mode, filled
  // from sched::Scheduler::counters() otherwise) ---
  std::uint64_t sched_workers = 0;
  std::uint64_t sched_spawned = 0;
  std::uint64_t sched_completed = 0;
  std::uint64_t sched_steals = 0;
  std::uint64_t sched_dispatches = 0;
  std::uint64_t sched_parks = 0;

  // --- mux transport counters (filled from net::mux_stats() through the
  // registered transport-stats source) ---
  std::uint64_t mux_connections = 0;
  std::uint64_t mux_streams_active = 0;
  std::uint64_t mux_streams_total = 0;
  std::uint64_t mux_credit_stalls = 0;
  std::uint64_t mux_credit_stall_ns = 0;

  // --- flight-recorder plane ---
  /// Flight recorder accounting (obs::flight_counters()), at every
  /// level: events recorded since start, events the per-thread rings
  /// have overwritten (a wrapped ring is not a complete record), and
  /// post-mortem dumps written.  All zero when the recorder is compiled
  /// out (DPN_FLIGHT=0).
  std::uint64_t flight_recorded = 0;
  std::uint64_t flight_dropped = 0;
  std::uint64_t flight_dumps = 0;
  /// Run-queue wait distribution (sched::runq_wait_histogram()): how long
  /// fibers sat runnable before a worker dispatched them.
  HistogramSnapshot sched_runq;

  std::vector<ProcessSnapshot> processes;
  std::vector<ChannelSnapshot> channels;

  /// Copies the process-wide fault counters into this snapshot.
  void fill_fault_counters();

  /// Copies the flight accounting and the process-wide runtime
  /// histograms into this snapshot.
  void fill_runtime_counters();

  /// Copies the process-wide transport counters from the registered
  /// source; no-op when none is registered.
  void fill_transport_counters();

  // --- derived queries (used by the monitor and tests) ---
  std::uint64_t blocked_readers() const;
  std::uint64_t blocked_writers() const;
  bool has_write_blocked() const { return blocked_writers() > 0; }
  /// The write-blocked channel with the smallest capacity (Parks' growth
  /// victim), or nullptr when none is write-blocked.
  const ChannelSnapshot* smallest_write_blocked() const;

  ByteVector encode() const;
  /// Throws SerializationError on another version byte, on a truncated
  /// payload, and on a count or length larger than the bytes left --
  /// checked before anything is allocated for it.
  static NetworkSnapshot decode(ByteSpan bytes);

  /// Folds another node's snapshot into this one: counters summed,
  /// histograms merged, processes/channels concatenated.  fleet_stats is
  /// built on this.
  void merge_from(NetworkSnapshot&& other);

  /// Multi-line human-readable rendering (the successor of the old
  /// Network::channel_report()).
  std::string to_string() const;
};

}  // namespace dpn::obs
