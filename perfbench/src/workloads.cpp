// The four benchmark workloads.  Each function runs one round: it builds
// its graph through the library's public API (set-up), runs it (timed),
// and checks every output against a reference computed here.  Why each
// workload exists, and what it is sized for, is in perfbench/NOTES.md.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "core/network.hpp"
#include "dist/node.hpp"
#include "dist/ship.hpp"
#include "factor/factor.hpp"
#include "fault/fault.hpp"
#include "net/mux.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "par/generic.hpp"
#include "processes/basic.hpp"
#include "processes/copy.hpp"
#include "processes/router.hpp"
#include "processes/sieve.hpp"
#include "rmi/compute_server.hpp"
#include "sched/scheduler.hpp"
#include "support/histogram.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace perfbench {
namespace {

using namespace dpn;

// --- sizes (full / tiny) ---------------------------------------------------

constexpr std::int64_t kSieveLimit = 60'000;  // integers 2..limit
constexpr std::int64_t kSieveLimitTiny = 2'000;
constexpr long kDeepTokens = 400'000;  // per channel, one channel per core
constexpr long kDeepTokensTiny = 5'000;
constexpr std::size_t kWideChannels = 1'000;
constexpr std::size_t kWideChannelsTiny = 50;
constexpr long kWideTokens = 1'000;  // per channel: 8 KB, below the window
constexpr long kWideTokensTiny = 100;
constexpr std::uint64_t kFarmTasks = 20'000;
constexpr std::uint64_t kFarmTasksTiny = 200;
constexpr std::uint64_t kFarmBatch = 2;  // differences per task
// Four workers per compute server keep 12 tasks in flight: with one per
// server the farm waited on a single round trip per worker and a busy
// host halved its throughput (NOTES.md).
constexpr std::size_t kFarmServers = 3;
constexpr std::size_t kFarmWorkers = 12;
constexpr std::size_t kFarmPrimeBits = 96;
constexpr std::uint64_t kScanSampleTasks = 2'000;

bool tiny(const RoundConfig& config) { return config.size == Size::kTiny; }

sched::SchedulerOptions work_steal(unsigned cores) {
  sched::SchedulerOptions options;
  options.mode = sched::SchedMode::kWorkSteal;
  options.workers = cores;
  options.stack_kb = 64;
  return options;
}

sched::SchedulerOptions thread_per_process() {
  sched::SchedulerOptions options;
  options.mode = sched::SchedMode::kThreadPerProcess;
  return options;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Set-up runs from construction to begin_timed() -- graph build, ship and
/// receive, server start and submit, and Network::start() -- and the timed
/// phase from there to end_timed(), when every process has finished.
class Phases {
 public:
  void begin_timed() {
    setup_s_ = watch_.elapsed_seconds();
    cpu_ = cpu_seconds();
    watch_.reset();
  }
  void end_timed(Round& round) const {
    round.timed_s = watch_.elapsed_seconds();
    round.cpu_s = cpu_seconds() - cpu_;
    round.setup_s = setup_s_;
  }

 private:
  Stopwatch watch_;
  double setup_s_ = 0.0;
  double cpu_ = 0.0;
};

// --- process-wide layer counters (traced rounds) ---------------------------

HistogramSnapshot minus(const HistogramSnapshot& after,
                        const HistogramSnapshot& before) {
  HistogramSnapshot delta;
  for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    delta.counts[i] = after.counts[i] - before.counts[i];
  }
  delta.count = after.count - before.count;
  delta.sum_ns = after.sum_ns - before.sum_ns;
  return delta;
}

/// Bytes the loopback device has sent: every frame header, credit grant
/// and handshake the transports put on the wire, which the nodes' payload
/// counters leave out.  0 where /proc/net/dev is unreadable.
std::uint64_t loopback_bytes_sent() {
  std::FILE* dev = std::fopen("/proc/net/dev", "r");
  if (dev == nullptr) return 0;
  char line[512];
  unsigned long long sent = 0;
  while (std::fgets(line, sizeof line, dev) != nullptr) {
    unsigned long long rx[8];
    if (std::sscanf(line, " lo: %llu %llu %llu %llu %llu %llu %llu %llu %llu",
                    &rx[0], &rx[1], &rx[2], &rx[3], &rx[4], &rx[5], &rx[6],
                    &rx[7], &sent) == 9) {
      break;
    }
  }
  std::fclose(dev);
  return sent;
}

/// The process-wide counters of the sched, net, obs and fault layers.
struct Counters {
  HistogramSnapshot runq;
  HistogramSnapshot connect;
  net::MuxStats mux;
  obs::FlightCounters flight;
  std::uint64_t connect_retries = 0;
  std::uint64_t workers_lost = 0;
  std::uint64_t loopback_bytes = 0;

  static Counters read() {
    Counters c;
    c.runq = sched::runq_wait_histogram().snapshot();
    c.connect = obs::runtime_histograms().connect.snapshot();
    c.mux = net::mux_stats();
    c.flight = obs::flight_counters();
    c.connect_retries = fault::stats().connect_retries.load();
    c.workers_lost = fault::stats().workers_lost.load();
    c.loopback_bytes = loopback_bytes_sent();
    return c;
  }
};

double per_kitem(double value, std::uint64_t items) {
  return items == 0 ? 0.0 : value * 1000.0 / static_cast<double>(items);
}

double ns_to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }
double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Records the process-wide layer metrics of one round.  `live_mux` is
/// the mux connection count read once the graph was connected.
void add_process_wide(Round& round, const Counters& before,
                      std::uint64_t live_mux) {
  const Counters after = Counters::read();
  const HistogramSnapshot runq = minus(after.runq, before.runq);
  const HistogramSnapshot connect = minus(after.connect, before.connect);
  auto& m = round.layer;
  m["sched.runq_wait_p50_us"] = ns_to_us(runq.p50_ns());
  m["sched.runq_wait_p99_us"] = ns_to_us(runq.p99_ns());
  m["net.mux_credit_stalls"] =
      static_cast<double>(after.mux.credit_stalls - before.mux.credit_stalls);
  m["net.mux_credit_stall_ms"] =
      ns_to_ms(after.mux.credit_stall_ns - before.mux.credit_stall_ns);
  m["net.mux_streams_total"] =
      static_cast<double>(after.mux.streams_total - before.mux.streams_total);
  m["net.mux_connections"] = static_cast<double>(live_mux);
  m["net.connect_p50_us"] = ns_to_us(connect.p50_ns());
  m["net.connect_p99_us"] = ns_to_us(connect.p99_ns());
  m["net.loopback_bytes_per_item"] =
      static_cast<double>(after.loopback_bytes - before.loopback_bytes) /
      static_cast<double>(std::max<std::uint64_t>(round.items, 1));
  m["obs.flight_events_per_kitem"] = per_kitem(
      static_cast<double>(after.flight.recorded - before.flight.recorded),
      round.items);
  m["obs.flight_dropped"] =
      static_cast<double>(after.flight.dropped - before.flight.dropped);
  m["fault.connect_retries"] =
      static_cast<double>(after.connect_retries - before.connect_retries);
  m["fault.workers_lost"] =
      static_cast<double>(after.workers_lost - before.workers_lost);
}

/// Scheduler counters of the networks that ran on M:N (read after join;
/// thread-per-process networks have no scheduler and contribute nothing).
void add_sched(Round& round, std::initializer_list<const core::Network*> nets) {
  sched::Scheduler::Counters sum;
  for (const core::Network* net : nets) {
    if (net->scheduler() == nullptr) continue;
    const auto c = net->scheduler()->counters();
    sum.dispatches += c.dispatches;
    sum.steals += c.steals;
    sum.parks += c.parks;
  }
  auto& m = round.layer;
  m["sched.dispatches_per_kitem"] =
      per_kitem(static_cast<double>(sum.dispatches), round.items);
  m["sched.steals_per_kitem"] =
      per_kitem(static_cast<double>(sum.steals), round.items);
  m["sched.idle_parks_per_kitem"] =
      per_kitem(static_cast<double>(sum.parks), round.items);
}

/// Blocked time and wakeups over the channels the benchmark created and
/// registered with `net` (channels a process creates at run time, such
/// as the sieve's filter chain, are not watched).
void add_core(Round& round, const core::Network& net) {
  const obs::NetworkSnapshot snap = net.snapshot();
  std::uint64_t read_ns = 0;
  std::uint64_t write_ns = 0;
  std::uint64_t wakeups = 0;
  for (const auto& channel : snap.channels) {
    read_ns += channel.blocked_read_ns;
    write_ns += channel.blocked_write_ns;
    wakeups += channel.reader_wakeups + channel.writer_wakeups;
  }
  auto& m = round.layer;
  m["core.blocked_read_ms"] = ns_to_ms(read_ns);
  m["core.blocked_write_ms"] = ns_to_ms(write_ns);
  m["core.wakeups_per_kitem"] =
      per_kitem(static_cast<double>(wakeups), round.items);
}

/// Items of `got` that differ from `want`, plus missing and extra ones.
std::uint64_t mismatches(const std::vector<std::int64_t>& got,
                         const std::vector<std::int64_t>& want) {
  const std::size_t common = std::min(got.size(), want.size());
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < common; ++i) bad += got[i] != want[i];
  return bad + (std::max(got.size(), want.size()) - common);
}

// --- sieve_local ----------------------------------------------------------

std::vector<std::int64_t> reference_primes(std::int64_t limit) {
  std::vector<bool> composite(static_cast<std::size_t>(limit) + 1, false);
  std::vector<std::int64_t> primes;
  for (std::int64_t i = 2; i <= limit; ++i) {
    if (composite[static_cast<std::size_t>(i)]) continue;
    primes.push_back(i);
    for (std::int64_t j = i * i; j <= limit; j += i) {
      composite[static_cast<std::size_t>(j)] = true;
    }
  }
  return primes;
}

// --- streams ----------------------------------------------------------------

/// One stream's seeded tokens: start, start + stride, ...  Drawn from the
/// run seed, so the program receives only the generated values.
struct StreamSpec {
  std::int64_t start = 0;
  std::int64_t stride = 1;
};

std::vector<StreamSpec> stream_specs(std::uint64_t seed, std::size_t count) {
  Xoshiro256 rng{seed};
  std::vector<StreamSpec> specs(count);
  for (auto& spec : specs) {
    spec.start = static_cast<std::int64_t>(rng.next() >> 4) -
                 (std::int64_t{1} << 59);
    spec.stride = 1 + 2 * static_cast<std::int64_t>(rng.below(1u << 19));
  }
  return specs;
}

/// Ships `channels` Sequence producers from node A to node B, each feeding
/// a Collect on node A, and streams `tokens` values through each.
Round run_streams(const RoundConfig& config, std::size_t channels, long tokens,
                  const sched::SchedulerOptions& producer_sched,
                  const sched::SchedulerOptions& consumer_sched) {
  const auto specs = stream_specs(config.seed, channels);
  Round round;
  round.items = channels * static_cast<std::uint64_t>(tokens);
  const Counters before = config.traced ? Counters::read() : Counters{};

  Phases phases;
  auto node_a = dist::NodeContext::create();
  auto node_b = dist::NodeContext::create();
  core::Network consumers;  // node A
  core::Network producers;  // node B
  consumers.set_scheduler(consumer_sched);
  producers.set_scheduler(producer_sched);

  std::vector<std::shared_ptr<processes::CollectSink<std::int64_t>>> sinks;
  sinks.reserve(channels);
  double ship_s = 0.0;
  double receive_s = 0.0;
  std::uint64_t ship_bytes = 0;
  for (std::size_t i = 0; i < channels; ++i) {
    auto channel = consumers.make_channel();
    auto sink = std::make_shared<processes::CollectSink<std::int64_t>>();
    auto source = std::make_shared<processes::Sequence>(
        specs[i].start, channel->output(), tokens, specs[i].stride);
    consumers.add(std::make_shared<processes::Collect>(channel->input(), sink));
    sinks.push_back(std::move(sink));

    Stopwatch ship_watch;
    const ByteVector shipment = dist::ship_process(node_a, source);
    ship_s += ship_watch.elapsed_seconds();
    ship_bytes += shipment.size();
    Stopwatch receive_watch;
    producers.add(
        dist::receive_process(node_b, {shipment.data(), shipment.size()}));
    receive_s += receive_watch.elapsed_seconds();
  }
  const std::uint64_t live_mux = net::mux_stats().connections;
  producers.start();
  consumers.start();

  phases.begin_timed();
  consumers.join();
  producers.join();
  phases.end_timed(round);

  for (std::size_t i = 0; i < channels; ++i) {
    std::vector<std::int64_t> got = sinks[i]->values();
    if (config.corrupt && i == 0 && !got.empty()) got.back() ^= 1;
    std::vector<std::int64_t> want(static_cast<std::size_t>(tokens));
    for (long k = 0; k < tokens; ++k) {
      want[static_cast<std::size_t>(k)] = specs[i].start + k * specs[i].stride;
    }
    round.failed += std::min<std::uint64_t>(mismatches(got, want),
                                            static_cast<std::uint64_t>(tokens));
  }

  if (config.traced) {
    add_process_wide(round, before, live_mux);
    add_sched(round, {&consumers, &producers});
    add_core(round, consumers);
    const double per_process = 1e6 / static_cast<double>(channels);
    auto& m = round.layer;
    m["dist.ship_us"] = ship_s * per_process;
    m["dist.receive_us"] = receive_s * per_process;
    m["dist.ship_bytes"] =
        static_cast<double>(ship_bytes) / static_cast<double>(channels);
    m["dist.wire_bytes_per_item"] =
        static_cast<double>(node_a->traffic()->bytes_sent.load() +
                            node_b->traffic()->bytes_sent.load()) /
        static_cast<double>(round.items);
  }
  return round;
}

}  // namespace

Round sieve_local(const RoundConfig& config) {
  // The input is the integer range 2..limit; the seed does not change it.
  const std::int64_t limit = tiny(config) ? kSieveLimitTiny : kSieveLimit;
  const std::vector<std::int64_t> want = reference_primes(limit);
  Round round;
  round.items = static_cast<std::uint64_t>(limit - 1);
  const Counters before = config.traced ? Counters::read() : Counters{};

  Phases phases;
  core::Network network;
  network.set_scheduler(work_steal(config.cores));
  auto numbers = network.make_channel({.capacity = 4096, .label = "numbers"});
  auto primes = network.make_channel({.capacity = 4096, .label = "primes"});
  auto sink = std::make_shared<processes::CollectSink<std::int64_t>>();
  network.add(
      std::make_shared<processes::Sequence>(2, numbers->output(), limit - 1));
  auto sift =
      std::make_shared<processes::Sift>(numbers->input(), primes->output());
  network.add(sift);
  network.add(std::make_shared<processes::Collect>(primes->input(), sink));
  network.start();

  phases.begin_timed();
  network.join();
  phases.end_timed(round);

  std::vector<std::int64_t> got = sink->values();
  if (config.corrupt && !got.empty()) got.back() += 1;
  // One filter per prime read: a reconfiguration change must keep it.
  const std::size_t filters = sift->filters_inserted();
  const std::uint64_t filter_error =
      filters > want.size() ? filters - want.size() : want.size() - filters;
  round.failed =
      std::min(round.items, mismatches(got, want) + filter_error);

  if (config.traced) {
    add_process_wide(round, before, net::mux_stats().connections);
    add_sched(round, {&network});
    add_core(round, network);
    round.layer["processes.filters_inserted"] = static_cast<double>(filters);
  }
  return round;
}

Round stream_deep(const RoundConfig& config) {
  // Producers run thread-per-process: M:N producers pushed past the
  // remote credit window crawl (NOTES.md records the numbers).
  return run_streams(config, config.cores,
                     tiny(config) ? kDeepTokensTiny : kDeepTokens,
                     thread_per_process(), work_steal(config.cores));
}

Round stream_wide(const RoundConfig& config) {
  return run_streams(config, tiny(config) ? kWideChannelsTiny : kWideChannels,
                     tiny(config) ? kWideTokensTiny : kWideTokens,
                     work_steal(config.cores), work_steal(config.cores));
}

Round factor_farm(const RoundConfig& config) {
  const std::uint64_t tasks = tiny(config) ? kFarmTasksTiny : kFarmTasks;
  const auto problem = factor::FactorProblem::generate(
      config.seed, kFarmPrimeBits, tasks, kFarmBatch);
  Round round;
  round.items = tasks;
  const Counters before = config.traced ? Counters::read() : Counters{};

  Phases phases;
  auto node = dist::NodeContext::create();
  // The local half runs thread-per-process.  On M:N it was steadier, but
  // a Turnstile fiber fed by its forwarder threads sometimes never woke
  // (NOTES.md, "Findings").
  core::Network network;
  network.set_scheduler(thread_per_process());
  std::vector<std::unique_ptr<rmi::ComputeServer>> servers;
  std::vector<std::shared_ptr<core::ChannelOutputStream>> task_outs;
  std::vector<std::shared_ptr<core::ChannelInputStream>> result_ins;
  double submit_s = 0.0;
  for (std::size_t i = 0; i < kFarmServers; ++i) {
    servers.push_back(std::make_unique<rmi::ComputeServer>(
        "perfbench-server-" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < kFarmWorkers; ++i) {
    auto tasks_ch = network.make_channel({.capacity = 4096});
    auto results_ch = network.make_channel({.capacity = 4096});
    auto worker = std::make_shared<par::Worker>(tasks_ch->input(),
                                                results_ch->output());
    rmi::ServerHandle handle{
        rmi::Endpoint{"127.0.0.1", servers[i % kFarmServers]->port()}, node};
    Stopwatch submit_watch;
    handle.submit(worker);
    submit_s += submit_watch.elapsed_seconds();
    task_outs.push_back(tasks_ch->output());
    result_ins.push_back(results_ch->input());
  }
  const std::uint64_t live_mux = net::mux_stats().connections;

  // The local half of the paper's Figure 17: producer, Direct, indexed
  // merge (Turnstile + Cons-prefixed Select), consumer.
  auto in = network.make_channel({.capacity = 4096, .label = "par.in"});
  auto out = network.make_channel({.capacity = 4096, .label = "par.out"});
  auto merged = network.make_channel({.capacity = 4096});
  auto tags = network.make_channel({.capacity = 4096});
  auto prefix = network.make_channel({.capacity = 4096});
  auto index = network.make_channel({.capacity = 4096});
  network.add(std::make_shared<par::Producer>(
      std::make_shared<factor::FactorProducerTask>(problem.n, tasks,
                                                   kFarmBatch,
                                                   /*announce=*/false),
      in->output()));
  network.add(std::make_shared<processes::Turnstile>(
      result_ins, merged->output(), tags->output()));
  network.add(std::make_shared<processes::Sequence>(
      0, prefix->output(), static_cast<long>(kFarmWorkers)));
  network.add(std::make_shared<processes::Cons>(prefix->input(), tags->input(),
                                                index->output()));
  network.add(std::make_shared<processes::Direct>(in->input(), index->input(),
                                                  task_outs));
  network.add(std::make_shared<processes::Select>(merged->input(),
                                                  out->output(), kFarmWorkers));
  std::mutex mutex;
  std::uint64_t results = 0;
  std::optional<bigint::BigInt> found;
  network.add(std::make_shared<par::Consumer>(
      out->input(), 0, [&](const std::shared_ptr<core::Task>& task) {
        auto result = std::dynamic_pointer_cast<factor::FactorResultTask>(task);
        std::scoped_lock lock{mutex};
        if (!result) return;
        ++results;
        if (result->found) found = result->p;
      }));
  network.start();

  phases.begin_timed();
  network.join();
  phases.end_timed(round);
  for (auto& server : servers) server->stop();

  if (config.corrupt && found) *found += bigint::BigInt{1};
  const std::uint64_t missing =
      results > tasks ? results - tasks : tasks - results;
  const std::uint64_t wrong = (found && *found == problem.p) ? 0 : 1;
  round.failed = std::min(tasks, missing + wrong);

  if (config.traced) {
    add_process_wide(round, before, live_mux);
    add_sched(round, {&network});
    add_core(round, network);
    auto& m = round.layer;
    m["rmi.submit_ms"] = submit_s * 1e3 / static_cast<double>(kFarmWorkers);
    std::uint64_t wire = node->traffic()->bytes_sent.load();
    for (const auto& server : servers) {
      wire += server->node()->traffic()->bytes_sent.load();
    }
    m["dist.wire_bytes_per_item"] =
        static_cast<double>(wire) / static_cast<double>(tasks);
    for (const auto& channel : network.snapshot().channels) {
      if (channel.label == "par.in") {
        m["par.dispatch_wait_ms"] = ns_to_ms(channel.blocked_write_ns);
        m["par.task_bytes"] = static_cast<double>(channel.bytes_written) /
                              static_cast<double>(tasks);
      } else if (channel.label == "par.out") {
        m["par.result_wait_ms"] = ns_to_ms(channel.blocked_read_ns);
      }
    }
    // The compute kernel alone, on the batches the farm dispatched first:
    // separates a dispatch gain from a bigint gain.
    const std::uint64_t sample = std::min(tasks, kScanSampleTasks);
    Stopwatch scan_watch;
    for (std::uint64_t k = 0; k < sample; ++k) {
      (void)factor::scan_differences(problem.n, 2 * kFarmBatch * k,
                                     kFarmBatch);
    }
    m["bigint.scan_us_per_task"] =
        scan_watch.elapsed_seconds() * 1e6 / static_cast<double>(sample);
  }
  return round;
}

std::uint64_t planned_items(const std::string& workload,
                            const RoundConfig& config) {
  const bool small = tiny(config);
  if (workload == "sieve_local") {
    return static_cast<std::uint64_t>((small ? kSieveLimitTiny : kSieveLimit) -
                                      1);
  }
  if (workload == "stream_deep") {
    return config.cores *
           static_cast<std::uint64_t>(small ? kDeepTokensTiny : kDeepTokens);
  }
  if (workload == "stream_wide") {
    return (small ? kWideChannelsTiny : kWideChannels) *
           static_cast<std::uint64_t>(small ? kWideTokensTiny : kWideTokens);
  }
  return small ? kFarmTasksTiny : kFarmTasks;
}

}  // namespace perfbench
