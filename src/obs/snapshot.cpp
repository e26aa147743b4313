#include "obs/snapshot.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "fault/fault.hpp"
#include "io/data.hpp"
#include "io/memory.hpp"
#include "obs/flight.hpp"
#include "sched/scheduler.hpp"

namespace dpn::obs {

namespace {

void write_histogram(io::DataOutputStream& out, const HistogramSnapshot& h) {
  out.write_varint(h.count);
  out.write_varint(h.sum_ns);
  for (const std::uint64_t c : h.counts) out.write_varint(c);
}

HistogramSnapshot read_histogram(io::DataInputStream& in) {
  HistogramSnapshot h;
  h.count = in.read_varint();
  h.sum_ns = in.read_varint();
  for (std::uint64_t& c : h.counts) c = in.read_varint();
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

namespace {

// The wire layout as lists of members, so encode, decode and merge_from
// cannot disagree on a field.
using Snap = NetworkSnapshot;
using Chan = ChannelSnapshot;

/// Summed by merge_from.
constexpr std::uint64_t Snap::*kCounters[] = {
    &Snap::live, &Snap::growth_events, &Snap::remote_bytes_sent,
    &Snap::remote_bytes_received, &Snap::connect_retries,
    &Snap::connect_failures, &Snap::tasks_reissued, &Snap::workers_lost,
    &Snap::lease_expiries, &Snap::registry_evictions, &Snap::faults_injected,
    &Snap::sched_workers, &Snap::sched_spawned, &Snap::sched_completed,
    &Snap::sched_steals, &Snap::sched_dispatches, &Snap::sched_parks,
    &Snap::mux_connections, &Snap::mux_streams_active,
    &Snap::mux_streams_total, &Snap::mux_credit_stalls,
    &Snap::mux_credit_stall_ns, &Snap::flight_recorded,
    &Snap::flight_dropped, &Snap::flight_dumps};
/// Merged bucket-wise by merge_from.
constexpr HistogramSnapshot Snap::*kHistograms[] = {
    &Snap::task_rtt, &Snap::connect_latency, &Snap::sched_runq};

constexpr bool Chan::*kChannelFlags[] = {
    &Chan::has_pipe,     &Chan::input_remote, &Chan::output_remote,
    &Chan::write_closed, &Chan::read_closed,  &Chan::has_typed,
    &Chan::typed_demoted};
constexpr std::uint64_t Chan::*kChannelCounters[] = {
    &Chan::id,               &Chan::capacity,        &Chan::buffered,
    &Chan::occupancy_hwm,    &Chan::bytes_written,   &Chan::tokens_written,
    &Chan::bytes_read,       &Chan::tokens_read,     &Chan::blocked_read_ns,
    &Chan::blocked_write_ns, &Chan::reader_wakeups,  &Chan::writer_wakeups,
    &Chan::typed_pushed,     &Chan::typed_popped,    &Chan::typed_buffered,
    &Chan::typed_capacity};
constexpr std::uint32_t Chan::*kChannelWaiters[] = {&Chan::blocked_readers,
                                                    &Chan::blocked_writers};
constexpr HistogramSnapshot Chan::*kChannelHistograms[] = {
    &Chan::read_block, &Chan::write_block};

}  // namespace

ByteVector NetworkSnapshot::encode() const {
  io::MemoryOutputStream sink;
  io::DataOutputStream out{sink};
  out.write_u8(kVersion);
  out.write_u8(outcome);
  for (const auto field : kCounters) out.write_varint(this->*field);
  for (const auto field : kHistograms) write_histogram(out, this->*field);

  out.write_varint(processes.size());
  for (const ProcessSnapshot& p : processes) {
    out.write_string(p.name);
    out.write_u8(static_cast<std::uint8_t>(p.state));
    out.write_varint(p.steps);
  }

  out.write_varint(channels.size());
  for (const ChannelSnapshot& c : channels) {
    out.write_string(c.label);
    for (const auto field : kChannelFlags) out.write_bool(c.*field);
    for (const auto field : kChannelCounters) out.write_varint(c.*field);
    for (const auto field : kChannelWaiters) out.write_varint(c.*field);
    for (const auto field : kChannelHistograms) write_histogram(out, c.*field);
  }
  return sink.take();
}

NetworkSnapshot NetworkSnapshot::decode(ByteSpan bytes) {
  io::MemoryInputStream source{ByteVector{bytes.begin(), bytes.end()}};
  io::DataInputStream in{source};
  // A count or length is at most the bytes left (every element takes at
  // least one), checked before anything is allocated for it.
  const auto read_count = [&](const char* what) {
    const std::uint64_t n = in.read_varint();
    if (n > source.remaining()) {
      throw SerializationError{"malformed NetworkSnapshot: " +
                               std::string{what} + " " + std::to_string(n) +
                               " exceeds the " +
                               std::to_string(source.remaining()) +
                               " bytes left"};
    }
    return static_cast<std::size_t>(n);
  };
  const auto read_string = [&] {
    std::string text(read_count("string length"), '\0');
    in.read_fully({reinterpret_cast<std::uint8_t*>(text.data()), text.size()});
    return text;
  };
  NetworkSnapshot snapshot;
  try {
    const std::uint8_t version = in.read_u8();
    if (version != kVersion) {
      throw SerializationError{
          "NetworkSnapshot version " + std::to_string(version) +
          " rejected: this build reads version " + std::to_string(kVersion)};
    }
    snapshot.outcome = in.read_u8();
    for (const auto field : kCounters) snapshot.*field = in.read_varint();
    for (const auto field : kHistograms) {
      snapshot.*field = read_histogram(in);
    }

    // Grown as records parse, not reserved: a raised count costs no more
    // memory than the bytes that are really there.
    for (std::size_t n = read_count("process count"); n > 0; --n) {
      ProcessSnapshot& p = snapshot.processes.emplace_back();
      p.name = read_string();
      p.state = static_cast<ProcessState>(in.read_u8());
      p.steps = in.read_varint();
    }

    for (std::size_t n = read_count("channel count"); n > 0; --n) {
      ChannelSnapshot& c = snapshot.channels.emplace_back();
      c.label = read_string();
      for (const auto field : kChannelFlags) c.*field = in.read_bool();
      for (const auto field : kChannelCounters) c.*field = in.read_varint();
      for (const auto field : kChannelWaiters) {
        c.*field = static_cast<std::uint32_t>(in.read_varint());
      }
      for (const auto field : kChannelHistograms) {
        c.*field = read_histogram(in);
      }
    }
  } catch (const EndOfStream& e) {
    throw SerializationError{std::string{"truncated NetworkSnapshot: "} +
                             e.what()};
  }
  return snapshot;
}

void NetworkSnapshot::merge_from(NetworkSnapshot&& other) {
  for (const auto field : kCounters) this->*field += other.*field;
  for (const auto field : kHistograms) (this->*field).merge(other.*field);
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
