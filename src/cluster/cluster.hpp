#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "par/schema.hpp"

/// Simulation of the paper's heterogeneous cluster (Section 5.2).
///
/// The original experiment ran on 25 computers / 34 CPUs in five speed
/// classes connected by 100 Mb/s ethernet.  We reproduce the *shape* of
/// Tables 1/2 and Figures 19/20 on one machine by giving each simulated
/// worker a speed multiplier: a task whose nominal cost is c seconds (on
/// the reference 1 GHz Pentium III, class C) takes c / speed wall-clock
/// seconds on a worker of that class.  The worker really executes the
/// task (the BigInt scan runs for real) and then a calibrated sleep makes
/// up the remainder, so dozens of simulated CPUs coexist on a small host
/// without distorting each other's timing.
namespace dpn::cluster {

struct CpuClass {
  char name;
  std::string description;
  double sequential_minutes;  // Table 1, measured on the real hardware
  double speed;               // normalized to class C = 1.00
  int cpus;                   // CPUs of this class in the fleet
};

/// The five classes of Table 1 with the paper's timings; speeds are
/// normalized to class C (22.50 minutes = 1.00).
const std::vector<CpuClass>& table1_classes();

/// Per-worker speeds for the paper's 34-CPU fleet, fastest classes first
/// (the assignment order used for Table 2: A, 6xB, 15xC, 4xD, 8xE).
/// Worker 8 is the first class-C CPU and worker 27 the first class-E CPU
/// -- the two inflection points of Figure 20.
std::vector<double> fleet_speeds();

/// Ideal elapsed time for `workers` CPUs (paper Section 5.2): the ideal
/// speed is the sum of the first `workers` fleet speeds, and the time
/// scales the class-C sequential time by it.
double ideal_speed(std::size_t workers);
double ideal_time(double class_c_sequential_seconds, std::size_t workers);

/// A par::Worker that emulates a CPU of the given speed: each task takes
/// task_seconds / speed wall-clock time (real compute + calibrated sleep).
class ThrottledWorker final : public par::IterativeProcess {
 public:
  ThrottledWorker(std::shared_ptr<par::ChannelInputStream> in,
                  std::shared_ptr<par::ChannelOutputStream> out, double speed,
                  double task_seconds);

  std::string type_name() const override { return "dpn.cluster.Worker"; }
  void write_fields(serial::ObjectOutputStream& out) const override;
  static std::shared_ptr<ThrottledWorker> read_object(
      serial::ObjectInputStream& in);

  double speed() const { return speed_; }
  std::size_t tasks_processed() const { return tasks_processed_; }
  /// Wall time spent running and throttling tasks, excluding the waits
  /// for the next task.  Read it after the run.
  double busy_seconds() const { return busy_seconds_; }

 protected:
  void step() override;

 private:
  ThrottledWorker() = default;
  double speed_ = 1.0;
  double task_seconds_ = 0.0;
  std::size_t tasks_processed_ = 0;
  double busy_seconds_ = 0.0;
};

/// Worker factory for par::meta_static / meta_dynamic: slot i gets
/// speeds[i].  `task_seconds` is the nominal class-C cost of one task.
par::WorkerFactory throttled_factory(std::vector<double> speeds,
                                     double task_seconds);

/// Emulates the sequential run of Table 1: total_tasks tasks, each costing
/// task_seconds at class-C speed, run at `speed`.  Returns wall seconds.
/// The tasks really execute (the workload is the factor scan).
double run_sequential_throttled(const bigint::BigInt& n,
                                std::uint64_t total_tasks,
                                std::uint64_t batch, double speed,
                                double task_seconds);

}  // namespace dpn::cluster
