#pragma once

#include <cstdint>
#include <map>
#include <string>

/// Shared types of the repository benchmark (see perfbench/NOTES.md).
///
/// A run repeats one workload in rounds, each in a fresh child process.
/// Each round builds and starts its graph (the set-up phase), waits for it
/// to finish (the timed phase), and checks every output against a
/// reference computed by the benchmark itself.  Traced rounds
/// additionally read the layers' public counters and time the calls the
/// benchmark makes into them; untraced rounds touch nothing beyond the
/// public API a user would call.
namespace perfbench {

/// Input scale: `full` is the measured size, `tiny` the self-test size.
enum class Size { kFull, kTiny };

struct RoundConfig {
  std::uint64_t seed = 0;
  unsigned cores = 1;
  Size size = Size::kFull;
  bool traced = false;
  /// Self-test hook: deliberately damages one output value after the
  /// timed phase, so the oracle must count it.
  bool corrupt = false;
};

/// One round's measurements.  `layer` is filled in traced rounds only.
struct Round {
  double setup_s = 0.0;
  double timed_s = 0.0;
  double cpu_s = 0.0;  // process user+sys CPU over the timed phase
  double peak_rss_mb = 0.0;  // VmHWM of the process that ran the round
  double steal_frac = 0.0;   // share of the machine's CPU time stolen
  std::uint64_t items = 0;
  std::uint64_t failed = 0;  // items missing or wrong
  std::map<std::string, double> layer;
};

using WorkloadFn = Round (*)(const RoundConfig&);

Round sieve_local(const RoundConfig& config);
Round stream_deep(const RoundConfig& config);
Round stream_wide(const RoundConfig& config);
Round factor_farm(const RoundConfig& config);

/// Items a round of `workload` attempts, for accounting a round that
/// never returned (deadline kill).
std::uint64_t planned_items(const std::string& workload,
                            const RoundConfig& config);

}  // namespace perfbench
