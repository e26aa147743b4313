#include "obs/snapshot.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "fault/fault.hpp"
#include "io/data.hpp"
#include "io/memory.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"

namespace dpn::obs {

namespace {

void write_histogram(io::DataOutputStream& out, const HistogramSnapshot& h) {
  out.write_varint(h.count);
  out.write_varint(h.sum_ns);
  // Bucket count on the wire, so a future layout change (more buckets)
  // stays decodable: a short reader folds the excess into its last
  // bucket, a long reader leaves its tail zero.
  out.write_varint(HistogramSnapshot::kBuckets);
  for (const std::uint64_t c : h.counts) out.write_varint(c);
}

HistogramSnapshot read_histogram(io::DataInputStream& in) {
  HistogramSnapshot h;
  h.count = in.read_varint();
  h.sum_ns = in.read_varint();
  const std::uint64_t buckets = in.read_varint();
  for (std::uint64_t i = 0; i < buckets; ++i) {
    const std::uint64_t c = in.read_varint();
    const std::size_t slot = std::min<std::size_t>(
        static_cast<std::size_t>(i), HistogramSnapshot::kBuckets - 1);
    h.counts[slot] += c;
  }
  return h;
}

std::string us_string(std::uint64_t ns) { return std::to_string(ns / 1000); }

std::atomic<TransportStats (*)()> g_transport_stats_source{nullptr};

}  // namespace

void set_transport_stats_source(TransportStats (*source)()) {
  g_transport_stats_source.store(source, std::memory_order_release);
}

void NetworkSnapshot::fill_fault_counters() {
  const fault::FaultStats& stats = fault::stats();
  connect_retries = stats.connect_retries.load(std::memory_order_relaxed);
  connect_failures = stats.connect_failures.load(std::memory_order_relaxed);
  tasks_reissued = stats.tasks_reissued.load(std::memory_order_relaxed);
  workers_lost = stats.workers_lost.load(std::memory_order_relaxed);
  lease_expiries = stats.lease_expiries.load(std::memory_order_relaxed);
  registry_evictions =
      stats.registry_evictions.load(std::memory_order_relaxed);
  faults_injected = stats.faults_injected.load(std::memory_order_relaxed);
}

void NetworkSnapshot::fill_runtime_counters() {
  const Tracer& tracer = Tracer::instance();
  trace_recorded = tracer.recorded();
  trace_dropped = tracer.dropped();
  trace_total_recorded = tracer.total_recorded();
  task_rtt = runtime_histograms().task_rtt.snapshot();
  connect_latency = runtime_histograms().connect.snapshot();
  const FlightCounters flight = flight_counters();
  flight_recorded = flight.recorded;
  flight_dropped = flight.dropped;
  flight_dumps = flight.dumps;
  sched_runq = sched::runq_wait_histogram().snapshot();
}

void NetworkSnapshot::fill_transport_counters() {
  const auto source = g_transport_stats_source.load(std::memory_order_acquire);
  if (source == nullptr) return;
  const TransportStats stats = source();
  mux_connections = stats.mux_connections;
  mux_streams_active = stats.mux_streams_active;
  mux_streams_total = stats.mux_streams_total;
  mux_credit_stalls = stats.mux_credit_stalls;
  mux_credit_stall_ns = stats.mux_credit_stall_ns;
}

std::uint64_t NetworkSnapshot::blocked_readers() const {
  std::uint64_t n = 0;
  for (const ChannelSnapshot& c : channels) n += c.blocked_readers;
  return n;
}

std::uint64_t NetworkSnapshot::blocked_writers() const {
  std::uint64_t n = 0;
  for (const ChannelSnapshot& c : channels) n += c.blocked_writers;
  return n;
}

const ChannelSnapshot* NetworkSnapshot::smallest_write_blocked() const {
  const ChannelSnapshot* victim = nullptr;
  for (const ChannelSnapshot& c : channels) {
    if (!c.has_pipe || c.blocked_writers == 0) continue;
    if (victim == nullptr || c.capacity < victim->capacity) victim = &c;
  }
  return victim;
}

ByteVector NetworkSnapshot::encode() const { return encode_as(kVersion); }

ByteVector NetworkSnapshot::encode_as(std::uint8_t want_version) const {
  const std::uint8_t v = std::clamp<std::uint8_t>(want_version, 1, kVersion);
  io::MemoryOutputStream sink;
  io::DataOutputStream out{sink};
  out.write_u8(v);
  out.write_u64(live);
  out.write_u8(outcome);
  out.write_u64(growth_events);
  out.write_u64(remote_bytes_sent);
  out.write_u64(remote_bytes_received);

  out.write_varint(processes.size());
  for (const ProcessSnapshot& p : processes) {
    out.write_string(p.name);
    out.write_u8(static_cast<std::uint8_t>(p.state));
    out.write_u64(p.steps);
  }

  out.write_varint(channels.size());
  for (const ChannelSnapshot& c : channels) {
    out.write_u64(c.id);
    out.write_string(c.label);
    out.write_bool(c.has_pipe);
    out.write_bool(c.input_remote);
    out.write_bool(c.output_remote);
    out.write_bool(c.write_closed);
    out.write_bool(c.read_closed);
    out.write_u64(c.capacity);
    out.write_u64(c.buffered);
    out.write_u64(c.occupancy_hwm);
    out.write_u64(c.bytes_written);
    out.write_u64(c.tokens_written);
    out.write_u64(c.bytes_read);
    out.write_u64(c.tokens_read);
    out.write_u64(c.blocked_read_ns);
    out.write_u64(c.blocked_write_ns);
    out.write_u64(c.reader_wakeups);
    out.write_u64(c.writer_wakeups);
    out.write_u32(c.blocked_readers);
    out.write_u32(c.blocked_writers);
    out.write_u64(c.flushes);
    out.write_u64(c.coalesced_writes);
    out.write_u64(c.write_buffered);
    out.write_u64(c.read_buffered);
  }

  // Version 2: fault counters, appended so version-1 decoders still parse
  // their prefix of the payload.
  if (v >= 2) {
    out.write_u64(connect_retries);
    out.write_u64(connect_failures);
    out.write_u64(tasks_reissued);
    out.write_u64(workers_lost);
    out.write_u64(lease_expiries);
    out.write_u64(registry_evictions);
    out.write_u64(faults_injected);
  }

  // Version 3: trace accounting, process-wide histograms, then one
  // read/write histogram pair per channel -- aligned by channel index,
  // because splicing them into the per-channel records above would have
  // broken version-1/2 prefix parsing.
  if (v >= 3) {
    out.write_u64(trace_recorded);
    out.write_u64(trace_dropped);
    write_histogram(out, task_rtt);
    write_histogram(out, connect_latency);
    for (const ChannelSnapshot& c : channels) {
      write_histogram(out, c.read_block);
      write_histogram(out, c.write_block);
    }
  }

  // Version 4: M:N scheduler counters, appended like the rest.
  if (v >= 4) {
    out.write_u64(sched_workers);
    out.write_u64(sched_spawned);
    out.write_u64(sched_completed);
    out.write_u64(sched_steals);
    out.write_u64(sched_dispatches);
    out.write_u64(sched_parks);
  }

  // Version 5: mux transport counters, appended like the rest.
  if (v >= 5) {
    out.write_u64(mux_connections);
    out.write_u64(mux_streams_active);
    out.write_u64(mux_streams_total);
    out.write_u64(mux_credit_stalls);
    out.write_u64(mux_credit_stall_ns);
  }

  // Version 6: per-channel typed fast-path records, aligned by channel
  // index like the version-3 histograms.
  if (v >= 6) {
    for (const ChannelSnapshot& c : channels) {
      out.write_bool(c.has_typed);
      out.write_bool(c.typed_demoted);
      out.write_varint(c.typed_pushed);
      out.write_varint(c.typed_popped);
      out.write_varint(c.typed_buffered);
      out.write_varint(c.typed_capacity);
    }
  }

  // Version 7: flight-recorder accounting and the run-queue wait
  // histogram, appended like the rest.
  if (v >= 7) {
    out.write_u64(flight_recorded);
    out.write_u64(flight_dropped);
    out.write_u64(flight_dumps);
    out.write_u64(trace_total_recorded);
    write_histogram(out, sched_runq);
  }
  return sink.take();
}

NetworkSnapshot NetworkSnapshot::decode(ByteSpan bytes) {
  return decode_prefix(bytes, kVersion);
}

NetworkSnapshot NetworkSnapshot::decode_prefix(ByteSpan bytes,
                                               std::uint8_t max_version) {
  io::MemoryInputStream source{ByteVector{bytes.begin(), bytes.end()}};
  io::DataInputStream in{source};
  const std::uint8_t advertised = in.read_u8();
  if (advertised == 0) {
    throw SerializationError{"malformed NetworkSnapshot: version 0"};
  }
  // Every version is an append-only extension of the previous one, so the
  // decodable part is whatever both sides know about; the rest of the
  // payload is ignored (newer writer) or left default (older writer).
  const std::uint8_t version = std::min(advertised, max_version);
  NetworkSnapshot snapshot;
  snapshot.version = version;
  snapshot.live = in.read_u64();
  snapshot.outcome = in.read_u8();
  snapshot.growth_events = in.read_u64();
  snapshot.remote_bytes_sent = in.read_u64();
  snapshot.remote_bytes_received = in.read_u64();

  const std::uint64_t n_processes = in.read_varint();
  snapshot.processes.reserve(n_processes);
  for (std::uint64_t i = 0; i < n_processes; ++i) {
    ProcessSnapshot p;
    p.name = in.read_string();
    p.state = static_cast<ProcessState>(in.read_u8());
    p.steps = in.read_u64();
    snapshot.processes.push_back(std::move(p));
  }

  const std::uint64_t n_channels = in.read_varint();
  snapshot.channels.reserve(n_channels);
  for (std::uint64_t i = 0; i < n_channels; ++i) {
    ChannelSnapshot c;
    c.id = in.read_u64();
    c.label = in.read_string();
    c.has_pipe = in.read_bool();
    c.input_remote = in.read_bool();
    c.output_remote = in.read_bool();
    c.write_closed = in.read_bool();
    c.read_closed = in.read_bool();
    c.capacity = in.read_u64();
    c.buffered = in.read_u64();
    c.occupancy_hwm = in.read_u64();
    c.bytes_written = in.read_u64();
    c.tokens_written = in.read_u64();
    c.bytes_read = in.read_u64();
    c.tokens_read = in.read_u64();
    c.blocked_read_ns = in.read_u64();
    c.blocked_write_ns = in.read_u64();
    c.reader_wakeups = in.read_u64();
    c.writer_wakeups = in.read_u64();
    c.blocked_readers = in.read_u32();
    c.blocked_writers = in.read_u32();
    c.flushes = in.read_u64();
    c.coalesced_writes = in.read_u64();
    c.write_buffered = in.read_u64();
    c.read_buffered = in.read_u64();
    snapshot.channels.push_back(std::move(c));
  }

  if (version >= 2) {
    snapshot.connect_retries = in.read_u64();
    snapshot.connect_failures = in.read_u64();
    snapshot.tasks_reissued = in.read_u64();
    snapshot.workers_lost = in.read_u64();
    snapshot.lease_expiries = in.read_u64();
    snapshot.registry_evictions = in.read_u64();
    snapshot.faults_injected = in.read_u64();
  }
  if (version >= 3) {
    snapshot.trace_recorded = in.read_u64();
    snapshot.trace_dropped = in.read_u64();
    snapshot.task_rtt = read_histogram(in);
    snapshot.connect_latency = read_histogram(in);
    for (ChannelSnapshot& c : snapshot.channels) {
      c.read_block = read_histogram(in);
      c.write_block = read_histogram(in);
    }
  }
  if (version >= 4) {
    snapshot.sched_workers = in.read_u64();
    snapshot.sched_spawned = in.read_u64();
    snapshot.sched_completed = in.read_u64();
    snapshot.sched_steals = in.read_u64();
    snapshot.sched_dispatches = in.read_u64();
    snapshot.sched_parks = in.read_u64();
  }
  if (version >= 5) {
    snapshot.mux_connections = in.read_u64();
    snapshot.mux_streams_active = in.read_u64();
    snapshot.mux_streams_total = in.read_u64();
    snapshot.mux_credit_stalls = in.read_u64();
    snapshot.mux_credit_stall_ns = in.read_u64();
  }
  if (version >= 6) {
    for (ChannelSnapshot& c : snapshot.channels) {
      c.has_typed = in.read_bool();
      c.typed_demoted = in.read_bool();
      c.typed_pushed = in.read_varint();
      c.typed_popped = in.read_varint();
      c.typed_buffered = in.read_varint();
      c.typed_capacity = in.read_varint();
    }
  }
  if (version >= 7) {
    snapshot.flight_recorded = in.read_u64();
    snapshot.flight_dropped = in.read_u64();
    snapshot.flight_dumps = in.read_u64();
    snapshot.trace_total_recorded = in.read_u64();
    snapshot.sched_runq = read_histogram(in);
  }
  return snapshot;
}

void NetworkSnapshot::merge_from(NetworkSnapshot&& other) {
  version = std::min(version, other.version);
  live += other.live;
  growth_events += other.growth_events;
  remote_bytes_sent += other.remote_bytes_sent;
  remote_bytes_received += other.remote_bytes_received;
  connect_retries += other.connect_retries;
  connect_failures += other.connect_failures;
  tasks_reissued += other.tasks_reissued;
  workers_lost += other.workers_lost;
  lease_expiries += other.lease_expiries;
  registry_evictions += other.registry_evictions;
  faults_injected += other.faults_injected;
  trace_recorded += other.trace_recorded;
  trace_dropped += other.trace_dropped;
  sched_workers += other.sched_workers;
  sched_spawned += other.sched_spawned;
  sched_completed += other.sched_completed;
  sched_steals += other.sched_steals;
  sched_dispatches += other.sched_dispatches;
  sched_parks += other.sched_parks;
  mux_connections += other.mux_connections;
  mux_streams_active += other.mux_streams_active;
  mux_streams_total += other.mux_streams_total;
  mux_credit_stalls += other.mux_credit_stalls;
  mux_credit_stall_ns += other.mux_credit_stall_ns;
  flight_recorded += other.flight_recorded;
  flight_dropped += other.flight_dropped;
  flight_dumps += other.flight_dumps;
  trace_total_recorded += other.trace_total_recorded;
  task_rtt.merge(other.task_rtt);
  connect_latency.merge(other.connect_latency);
  sched_runq.merge(other.sched_runq);
  for (auto& p : other.processes) processes.push_back(std::move(p));
  for (auto& c : other.channels) channels.push_back(std::move(c));
}

std::string NetworkSnapshot::to_string() const {
  std::string out;
  out += "live=" + std::to_string(live) +
         " growth_events=" + std::to_string(growth_events) + "\n";
  if (connect_retries > 0 || connect_failures > 0 || tasks_reissued > 0 ||
      workers_lost > 0 || lease_expiries > 0 || registry_evictions > 0 ||
      faults_injected > 0) {
    out += "faults: retries=" + std::to_string(connect_retries) +
           " connect_failures=" + std::to_string(connect_failures) +
           " reissued=" + std::to_string(tasks_reissued) +
           " workers_lost=" + std::to_string(workers_lost) +
           " lease_expiries=" + std::to_string(lease_expiries) +
           " evictions=" + std::to_string(registry_evictions) +
           " injected=" + std::to_string(faults_injected) + "\n";
  }
  if (trace_recorded > 0) {
    out += "trace: recorded=" + std::to_string(trace_recorded) +
           " dropped=" + std::to_string(trace_dropped) +
           " lifetime=" + std::to_string(trace_total_recorded) + "\n";
  }
  if (flight_recorded > 0 || flight_dumps > 0) {
    out += "flight: recorded=" + std::to_string(flight_recorded) +
           " dropped=" + std::to_string(flight_dropped) +
           " dumps=" + std::to_string(flight_dumps) + "\n";
  }
  if (sched_workers > 0) {
    out += "sched: workers=" + std::to_string(sched_workers) +
           " spawned=" + std::to_string(sched_spawned) +
           " completed=" + std::to_string(sched_completed) +
           " steals=" + std::to_string(sched_steals) +
           " dispatches=" + std::to_string(sched_dispatches) +
           " parks=" + std::to_string(sched_parks) + "\n";
  }
  if (mux_connections > 0) {
    out += "mux: connections=" + std::to_string(mux_connections) +
           " streams=" + std::to_string(mux_streams_active) + "/" +
           std::to_string(mux_streams_total) +
           " credit_stalls=" + std::to_string(mux_credit_stalls) +
           " stall_time=" + us_string(mux_credit_stall_ns) + "us\n";
  }
  if (!sched_runq.empty()) {
    out += "runq wait: n=" + std::to_string(sched_runq.count) +
           " p50=" + us_string(sched_runq.p50_ns()) +
           "us p95=" + us_string(sched_runq.p95_ns()) +
           "us p99=" + us_string(sched_runq.p99_ns()) + "us\n";
  }
  if (!task_rtt.empty()) {
    out += "task rtt: n=" + std::to_string(task_rtt.count) +
           " p50=" + us_string(task_rtt.p50_ns()) +
           "us p95=" + us_string(task_rtt.p95_ns()) +
           "us p99=" + us_string(task_rtt.p99_ns()) + "us\n";
  }
  if (!connect_latency.empty()) {
    out += "connect: n=" + std::to_string(connect_latency.count) +
           " p50=" + us_string(connect_latency.p50_ns()) +
           "us p95=" + us_string(connect_latency.p95_ns()) +
           "us p99=" + us_string(connect_latency.p99_ns()) + "us\n";
  }
  for (const ProcessSnapshot& p : processes) {
    out += "process ";
    out += p.name.empty() ? "<unnamed>" : p.name;
    out += ": ";
    out += obs::to_string(p.state);
    out += ", " + std::to_string(p.steps) + " steps\n";
  }
  for (const ChannelSnapshot& c : channels) {
    out += c.label.empty() ? "<unnamed>" : c.label;
    out += ":";
    if (!c.has_pipe) {
      out += " remote";
    } else {
      out += " ";
      out += std::to_string(c.buffered) + "/" + std::to_string(c.capacity);
      out += " bytes (hwm " + std::to_string(c.occupancy_hwm) + ")";
    }
    out += ", ";
    out += std::to_string(c.bytes_written) + "B/" +
           std::to_string(c.tokens_written) + " tokens out, " +
           std::to_string(c.bytes_read) + "B/" +
           std::to_string(c.tokens_read) + " tokens in";
    if (c.blocked_read_ns > 0 || c.blocked_write_ns > 0) {
      out += ", waited r=";
      out += std::to_string(c.blocked_read_ns / 1000) + "us w=" +
             std::to_string(c.blocked_write_ns / 1000) + "us";
    }
    if (!c.read_block.empty()) {
      out += ", r-wait p50/p95/p99=" + us_string(c.read_block.p50_ns()) +
             "/" + us_string(c.read_block.p95_ns()) + "/" +
             us_string(c.read_block.p99_ns()) + "us";
    }
    if (!c.write_block.empty()) {
      out += ", w-wait p50/p95/p99=" + us_string(c.write_block.p50_ns()) +
             "/" + us_string(c.write_block.p95_ns()) + "/" +
             us_string(c.write_block.p99_ns()) + "us";
    }
    if (c.blocked_readers > 0) {
      out += ", ";
      out += std::to_string(c.blocked_readers) + " blocked reader(s)";
    }
    if (c.blocked_writers > 0) {
      out += ", ";
      out += std::to_string(c.blocked_writers) + " blocked writer(s)";
    }
    if (c.flushes > 0 || c.coalesced_writes > 0) {
      out += ", ";
      out += std::to_string(c.flushes) + " flushes/" +
             std::to_string(c.coalesced_writes) + " coalesced";
    }
    if (c.has_typed) {
      out += c.typed_demoted ? ", typed (demoted)" : ", typed";
      out += " " + std::to_string(c.typed_buffered) + "/" +
             std::to_string(c.typed_capacity) + " values, " +
             std::to_string(c.typed_pushed) + " pushed/" +
             std::to_string(c.typed_popped) + " popped";
    }
    if (c.write_closed) out += ", writer closed";
    if (c.read_closed) out += ", reader closed";
    if (c.output_remote) out += ", producer remote";
    if (c.input_remote) out += ", consumer remote";
    out += "\n";
  }
  return out;
}

}  // namespace dpn::obs
