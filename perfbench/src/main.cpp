// dpn_perfbench: runs one benchmark workload for a fixed time and prints
// its metrics.  perfbench/run.py builds and invokes it; see
// perfbench/NOTES.md for the workloads and the metric definitions.
//
//   dpn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--size full|tiny] [--corrupt 0|1]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1).  Earlier lines print each metric by name and unit.

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "support/stopwatch.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"items_per_s", "1/s"},
    {"setup_s", "s"},
    {"cpu_us_per_item", "us"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"sched.dispatches_per_kitem", "count/kitem"},
    {"sched.steals_per_kitem", "count/kitem"},
    {"sched.idle_parks_per_kitem", "count/kitem"},
    {"sched.runq_wait_p50_us", "us"},
    {"sched.runq_wait_p99_us", "us"},
    {"core.blocked_read_ms", "ms"},
    {"core.blocked_write_ms", "ms"},
    {"core.wakeups_per_kitem", "count/kitem"},
    {"processes.filters_inserted", "count"},
    {"dist.wire_bytes_per_item", "bytes/item"},
    {"dist.ship_us", "us"},
    {"dist.receive_us", "us"},
    {"dist.ship_bytes", "bytes"},
    {"net.mux_credit_stalls", "count"},
    {"net.mux_credit_stall_ms", "ms"},
    {"net.mux_streams_total", "count"},
    {"net.mux_connections", "count"},
    {"net.connect_p50_us", "us"},
    {"net.connect_p99_us", "us"},
    {"net.loopback_bytes_per_item", "bytes/item"},
    {"rmi.submit_ms", "ms"},
    {"par.dispatch_wait_ms", "ms"},
    {"par.result_wait_ms", "ms"},
    {"par.task_bytes", "bytes"},
    {"bigint.scan_us_per_task", "us"},
    {"obs.flight_events_per_kitem", "count/kitem"},
    {"obs.flight_dropped", "count"},
    {"fault.connect_retries", "count"},
    {"fault.workers_lost", "count"},
    {"trace.overhead_frac", "frac"},
};

/// A run stops starting rounds after --seconds, and abandons a round still
/// running this long after the run began (a run may take 180 s in all).
constexpr std::chrono::seconds kRunDeadline{150};

/// On a virtual machine, another guest can take the host's CPUs away for
/// seconds at a time ("steal" time), slowing a round several-fold for
/// reasons outside the program.  Rounds that lost more than this share of
/// the machine's CPU time are left out of the medians, as long as at
/// least kMinQuietRounds others remain.
constexpr double kMaxStealFrac = 0.05;
constexpr std::size_t kMinQuietRounds = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  bool corrupt = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dpn_perfbench: %s\nusage: dpn_perfbench --workload "
               "sieve_local|stream_deep|stream_wide|factor_farm --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--corrupt 0|1]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") usage("bad --size");
      options.size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--corrupt") {
      options.corrupt = value == "1";
    } else {
      usage("unknown flag");
    }
  }
  if (options.seconds <= 0) usage("--seconds must be positive");
  return options;
}

WorkloadFn find_workload(const std::string& name) {
  if (name == "sieve_local") return sieve_local;
  if (name == "stream_deep") return stream_deep;
  if (name == "stream_wide") return stream_wide;
  if (name == "factor_farm") return factor_farm;
  usage("unknown workload");
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kb) / 1024.0;
}

/// Clock ticks, summed over all CPUs, that the hypervisor gave to other
/// guests while this machine's CPUs were ready to run (/proc/stat).
std::uint64_t steal_ticks() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(stat);
  return n == 8 ? v[7] : 0;
}

/// The rounds not disturbed by steal, or all of them when too few were.
std::vector<Round> quiet(const std::vector<Round>& rounds) {
  std::vector<Round> kept;
  for (const Round& r : rounds) {
    if (r.steal_frac <= kMaxStealFrac) kept.push_back(r);
  }
  return kept.size() >= kMinQuietRounds ? kept : rounds;
}

// --- one round in a child process ----------------------------------------
//
// Every round forks a fresh child, so rounds cannot leak state (sockets,
// threads, heap) into each other, peak RSS is the round's own, and a
// stuck round can be killed.  The child reports one "key value" line per
// field over a pipe.

std::string encode(const Round& round) {
  std::ostringstream out;
  out.precision(17);
  out << "setup_s " << round.setup_s << '\n'
      << "timed_s " << round.timed_s << '\n'
      << "cpu_s " << round.cpu_s << '\n'
      << "peak_rss_mb " << round.peak_rss_mb << '\n'
      << "items " << round.items << '\n'
      << "failed " << round.failed << '\n';
  for (const auto& [name, value] : round.layer) {
    out << "layer " << name << ' ' << value << '\n';
  }
  out << "end\n";
  return out.str();
}

std::optional<Round> decode(const std::string& text) {
  std::istringstream in{text};
  Round round;
  std::string key;
  while (in >> key) {
    if (key == "setup_s") in >> round.setup_s;
    else if (key == "timed_s") in >> round.timed_s;
    else if (key == "cpu_s") in >> round.cpu_s;
    else if (key == "peak_rss_mb") in >> round.peak_rss_mb;
    else if (key == "items") in >> round.items;
    else if (key == "failed") in >> round.failed;
    else if (key == "layer") {
      std::string name;
      double value = 0.0;
      in >> name >> value;
      round.layer[name] = value;
    } else if (key == "end") {
      return round;
    } else {
      std::string rest;
      std::getline(in, rest);
      std::fprintf(stderr, "dpn_perfbench: round failed: %s%s\n", key.c_str(),
                   rest.c_str());
      return std::nullopt;
    }
  }
  return std::nullopt;  // the child died before reporting
}

void write_all(int fd, const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n <= 0) return;
    done += static_cast<std::size_t>(n);
  }
}

/// Runs one round in a child.  nullopt when the child threw, crashed or
/// was still running at `deadline` (it is then killed).
std::optional<Round> run_round(WorkloadFn workload, const RoundConfig& config,
                               Clock::time_point deadline) {
  int fds[2];
  if (::pipe(fds) != 0) return std::nullopt;
  std::fflush(nullptr);
  const pid_t child = ::fork();
  if (child < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return std::nullopt;
  }
  if (child == 0) {
    ::close(fds[0]);
    std::string report;
    try {
      Round round = workload(config);
      round.peak_rss_mb = peak_rss_mb();
      report = encode(round);
    } catch (const std::exception& e) {
      report = std::string{"error "} + e.what() + "\n";
    }
    write_all(fds[1], report);
    // Skip static destructors: the runtime's process-wide services are
    // not torn down between rounds, the process is.
    std::_Exit(0);
  }
  ::close(fds[1]);
  std::string text;
  bool killed = false;
  char buffer[4096];
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      ::kill(child, SIGKILL);
      killed = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready <= 0) continue;  // timeout or EINTR: re-check the deadline
    const ssize_t n = ::read(fds[0], buffer, sizeof buffer);
    if (n <= 0) break;
    text.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(child, &status, 0);
  if (killed) {
    std::fprintf(stderr, "dpn_perfbench: round exceeded its deadline\n");
    return std::nullopt;
  }
  return decode(text);
}

// --- the run --------------------------------------------------------------

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<Metric, double>>& metrics) {
  for (const auto& [metric, value] : metrics) {
    std::printf("metric %-28s %.6g %s\n", metric.name, value, metric.unit);
  }
  std::printf("metric %-28s %.6g %s\n", "failed_frac",
              attempted == 0 ? 1.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              "frac");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  attempted, 1)),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const auto& [metric, value] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                metric.name, value, metric.unit);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Options& options) {
  const WorkloadFn workload = find_workload(options.workload);
  RoundConfig config;
  config.seed = options.seed;
  config.cores = std::max(1u, std::thread::hardware_concurrency());
  config.size = options.size;
  config.corrupt = options.corrupt;

  std::printf("meta {\"workload\": \"%s\", \"seed\": %llu, \"cores\": %u, "
              "\"compiler\": \"g++ %s\", \"build_type\": \"%s\", "
              "\"trace\": %d}\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), config.cores,
              __VERSION__, PERFBENCH_BUILD_TYPE, options.trace ? 1 : 0);

  const dpn::Stopwatch clock;
  const Clock::time_point deadline = Clock::now() + kRunDeadline;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool broken = false;  // a round threw, crashed or timed out
  std::vector<Round> plain;   // untraced rounds
  std::vector<Round> traced;  // traced rounds
  // A traced run alternates untraced and traced rounds, so the tracing
  // overhead is measured under the same conditions.
  const std::size_t min_rounds = options.trace ? 6 : 3;
  for (std::size_t index = 0;; ++index) {
    config.traced = options.trace && index % 2 == 1;
    const std::uint64_t steal_before = steal_ticks();
    const dpn::Stopwatch round_clock;
    std::optional<Round> round = run_round(workload, config, deadline);
    if (!round) {
      broken = true;
      const std::uint64_t planned = planned_items(options.workload, config);
      attempted += planned;
      failed += planned;
      break;
    }
    round->steal_frac =
        static_cast<double>(steal_ticks() - steal_before) /
        (round_clock.elapsed_seconds() *
         static_cast<double>(::sysconf(_SC_CLK_TCK)) * config.cores);
    attempted += round->items;
    failed += round->failed;
    std::fprintf(stderr,
                 "round %zu%s: setup %.6f s, timed %.6f s, cpu %.6f s, "
                 "rss %.1f MB, steal %.1f%%, %llu items, %llu failed\n",
                 index, config.traced ? " (traced)" : "", round->setup_s,
                 round->timed_s, round->cpu_s, round->peak_rss_mb,
                 100.0 * round->steal_frac,
                 static_cast<unsigned long long>(round->items),
                 static_cast<unsigned long long>(round->failed));
    (config.traced ? traced : plain).push_back(*round);
    if (index + 1 >= min_rounds && clock.elapsed_seconds() >= options.seconds) {
      break;
    }
  }

  std::printf("rounds %zu untraced, %zu traced, %zu + %zu quiet, %.2f s\n",
              plain.size(), traced.size(), quiet(plain).size(),
              quiet(traced).size(), clock.elapsed_seconds());
  plain = quiet(plain);
  traced = quiet(traced);
  auto median_of = [](const std::vector<Round>& rounds, auto&& field) {
    std::vector<double> values;
    for (const Round& r : rounds) values.push_back(field(r));
    return median(values);
  };
  auto rate = [](const Round& r) {
    return r.timed_s > 0 ? static_cast<double>(r.items) / r.timed_s : 0.0;
  };

  std::vector<std::pair<Metric, double>> metrics;
  if (!options.trace) {
    const double values[] = {
        median_of(plain, rate),
        median_of(plain, [](const Round& r) { return r.setup_s; }),
        median_of(plain,
                  [](const Round& r) {
                    return r.items > 0 ? r.cpu_s * 1e6 /
                                             static_cast<double>(r.items)
                                       : 0.0;
                  }),
        median_of(plain, [](const Round& r) { return r.peak_rss_mb; }),
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    const double plain_rate = median_of(plain, rate);
    const double traced_rate = median_of(traced, rate);
    for (const Metric& m : kPerLayer) {
      double value = 0.0;
      if (std::strcmp(m.name, "trace.overhead_frac") == 0) {
        value = plain_rate > 0 ? 1.0 - traced_rate / plain_rate : 0.0;
      } else {
        value = median_of(traced, [&](const Round& r) {
          const auto it = r.layer.find(m.name);
          return it == r.layer.end() ? 0.0 : it->second;
        });
      }
      metrics.emplace_back(m, value);
    }
  }
  print_result(!broken && failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
