#include "cluster/cluster.hpp"

#include <chrono>
#include <thread>

#include "factor/factor.hpp"
#include "support/stopwatch.hpp"

namespace dpn::cluster {

namespace {
constexpr double kClassCMinutes = 22.50;
}

const std::vector<CpuClass>& table1_classes() {
  static const std::vector<CpuClass> kClasses = {
      {'A', "2.4 GHz Pentium 4", 11.63, kClassCMinutes / 11.63, 1},
      {'B', "2.2 GHz Pentium 4", 13.13, kClassCMinutes / 13.13, 6},
      {'C', "1.0 GHz Pentium III", 22.50, 1.00, 15},
      {'D', "dual 933 MHz Pentium III", 22.78, kClassCMinutes / 22.78, 4},
      {'E', "8 x 700 MHz Pentium III Xeon", 28.14, kClassCMinutes / 28.14, 8},
  };
  return kClasses;
}

std::vector<double> fleet_speeds() {
  std::vector<double> speeds;
  for (const CpuClass& cls : table1_classes()) {
    for (int i = 0; i < cls.cpus; ++i) speeds.push_back(cls.speed);
  }
  return speeds;  // 34 CPUs, fastest classes first
}

double ideal_speed(std::size_t workers) {
  const std::vector<double> speeds = fleet_speeds();
  double total = 0.0;
  for (std::size_t i = 0; i < workers && i < speeds.size(); ++i) {
    total += speeds[i];
  }
  return total;
}

double ideal_time(double class_c_sequential_seconds, std::size_t workers) {
  const double speed = ideal_speed(workers);
  return speed > 0 ? class_c_sequential_seconds / speed
                   : class_c_sequential_seconds;
}

ThrottledWorker::ThrottledWorker(std::shared_ptr<par::ChannelInputStream> in,
                                 std::shared_ptr<par::ChannelOutputStream> out,
                                 double speed, double task_seconds)
    : speed_(speed), task_seconds_(task_seconds) {
  if (speed <= 0) throw UsageError{"worker speed must be positive"};
  track_input(std::move(in));
  track_output(std::move(out));
}

void ThrottledWorker::step() {
  io::DataInputStream in{*input(0)};
  auto task = par::read_task(in);
  if (!task) throw SerializationError{"throttled worker got a null task"};

  Stopwatch watch;
  auto result = task->run();
  const double target = task_seconds_ / speed_;
  const double remaining = target - watch.elapsed_seconds();
  if (remaining > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(remaining));
  }
  ++tasks_processed_;
  busy_seconds_ += watch.elapsed_seconds();

  io::DataOutputStream out{*output(0)};
  par::write_task(out, result);
}

void ThrottledWorker::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
  out.write_f64(speed_);
  out.write_f64(task_seconds_);
}

std::shared_ptr<ThrottledWorker> ThrottledWorker::read_object(
    serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<ThrottledWorker>(new ThrottledWorker);
  process->read_base(in);
  process->speed_ = in.read_f64();
  process->task_seconds_ = in.read_f64();
  return process;
}

par::WorkerFactory throttled_factory(std::vector<double> speeds,
                                     double task_seconds) {
  return [speeds = std::move(speeds), task_seconds](
             std::size_t index, std::shared_ptr<par::ChannelInputStream> in,
             std::shared_ptr<par::ChannelOutputStream> out)
             -> std::shared_ptr<core::Process> {
    if (index >= speeds.size()) {
      throw UsageError{"not enough CPUs in the simulated fleet"};
    }
    return std::make_shared<ThrottledWorker>(std::move(in), std::move(out),
                                             speeds[index], task_seconds);
  };
}

double run_sequential_throttled(const bigint::BigInt& n,
                                std::uint64_t total_tasks,
                                std::uint64_t batch, double speed,
                                double task_seconds) {
  Stopwatch total;
  factor::FactorProducerTask producer{n, total_tasks, batch};
  for (;;) {
    auto worker_task = producer.run();
    if (!worker_task) break;
    Stopwatch watch;
    auto result = worker_task->run();
    (void)result;
    const double target = task_seconds / speed;
    const double remaining = target - watch.elapsed_seconds();
    if (remaining > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(remaining));
    }
  }
  return total.elapsed_seconds();
}

namespace {
[[maybe_unused]] const bool kRegistered =
    serial::register_type<ThrottledWorker>("dpn.cluster.Worker");
}

}  // namespace dpn::cluster
