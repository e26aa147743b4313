#include <gtest/gtest.h>

#include <mutex>

#include "cluster/cluster.hpp"
#include "factor/factor.hpp"

namespace dpn::cluster {
namespace {

TEST(Table1, ClassesMatchThePaper) {
  const auto& classes = table1_classes();
  ASSERT_EQ(classes.size(), 5u);
  EXPECT_EQ(classes[0].name, 'A');
  EXPECT_NEAR(classes[0].speed, 1.93, 0.01);  // 2.4 GHz P4
  EXPECT_NEAR(classes[1].speed, 1.71, 0.01);  // 2.2 GHz P4
  EXPECT_DOUBLE_EQ(classes[2].speed, 1.00);   // 1 GHz PIII reference
  EXPECT_NEAR(classes[3].speed, 0.99, 0.01);
  EXPECT_NEAR(classes[4].speed, 0.80, 0.01);  // 700 MHz Xeon
}

TEST(Fleet, ThirtyFourCpusFastestFirst) {
  const auto speeds = fleet_speeds();
  ASSERT_EQ(speeds.size(), 34u);
  // Non-increasing (fastest classes are used first, Section 5.2).
  for (std::size_t i = 1; i < speeds.size(); ++i) {
    EXPECT_LE(speeds[i], speeds[i - 1]);
  }
  // The Figure 20 inflection points: worker 8 is the first class-C CPU,
  // worker 27 the first class-E CPU (1-based as in the paper).
  EXPECT_GT(speeds[6], 1.05);             // worker 7: still class B
  EXPECT_DOUBLE_EQ(speeds[7], 1.00);      // worker 8: first class C
  EXPECT_GT(speeds[25], 0.9);             // worker 26: class D
  EXPECT_NEAR(speeds[26], 0.80, 0.01);    // worker 27: first class E
}

TEST(IdealModel, SpeedAccumulates) {
  EXPECT_NEAR(ideal_speed(1), 1.93, 0.01);
  EXPECT_NEAR(ideal_speed(2), 1.93 + 1.71, 0.02);
  // Paper Table 2 ideal speeds: 4 -> 7.08, 8 -> 13.22, 16 -> 21.22,
  // 32 -> 35.97.
  EXPECT_NEAR(ideal_speed(4), 7.08, 0.05);
  EXPECT_NEAR(ideal_speed(8), 13.22, 0.1);
  EXPECT_NEAR(ideal_speed(16), 21.22, 0.1);
  EXPECT_NEAR(ideal_speed(32), 35.97, 0.3);
}

TEST(IdealModel, TimeScalesInversely) {
  const double base = 100.0;
  EXPECT_GT(ideal_time(base, 1), ideal_time(base, 2));
  EXPECT_NEAR(ideal_time(base, 1) / ideal_time(base, 4),
              ideal_speed(4) / ideal_speed(1), 1e-9);
  EXPECT_DOUBLE_EQ(ideal_time(base, 0), base);
}

TEST(ThrottledWorker, SlowerSpeedTakesLonger) {
  // Two single-worker runs over the same workload: speed 0.5 must take
  // roughly twice as long as speed 1.0.  Only the worker's busy time is
  // compared: graph set-up, thread start and task hand-offs are not
  // throttled, and with every core busy they added 10-30 ms to the 60 ms
  // fast run, enough to squeeze the ratio under 1.5.
  const auto problem = factor::FactorProblem::generate(3, 64, 6);
  const double task_seconds = 0.01;

  auto timed_run = [&](double speed) {
    std::mutex mutex;
    int results = 0;
    std::shared_ptr<ThrottledWorker> worker;
    auto graph = par::pipeline(
        std::make_shared<factor::FactorProducerTask>(problem.n, 6),
        [&](const std::shared_ptr<core::Task>&) {
          std::scoped_lock lock{mutex};
          ++results;
        },
        [&](auto in, auto out) {
          return par::meta_dynamic(
              std::move(in), std::move(out), 1,
              [&](std::size_t, auto task_in, auto task_out)
                  -> std::shared_ptr<core::Process> {
                worker = std::make_shared<ThrottledWorker>(
                    std::move(task_in), std::move(task_out), speed,
                    task_seconds);
                return worker;
              });
        });
    graph->run();
    EXPECT_EQ(results, 6);
    return worker->busy_seconds();
  };

  const double fast = timed_run(1.0);
  const double slow = timed_run(0.5);
  EXPECT_GE(fast, 6 * task_seconds * 0.9);
  EXPECT_GT(slow, fast * 1.5);
  EXPECT_LT(slow, fast * 3.5);
}

TEST(ThrottledWorker, DynamicBalancingSkewsTaskCounts) {
  // A fast and a slow worker under on-demand balancing: the fast worker
  // must end up processing more tasks (Section 5's core claim).
  const auto problem = factor::FactorProblem::generate(4, 64, 24);
  std::vector<std::shared_ptr<ThrottledWorker>> workers;
  std::mutex workers_mutex;
  auto factory = [&](std::size_t index,
                     std::shared_ptr<core::ChannelInputStream> in,
                     std::shared_ptr<core::ChannelOutputStream> out)
      -> std::shared_ptr<core::Process> {
    const double speed = index == 0 ? 4.0 : 1.0;
    auto worker = std::make_shared<ThrottledWorker>(
        std::move(in), std::move(out), speed, 0.005);
    std::scoped_lock lock{workers_mutex};
    workers.push_back(worker);
    return worker;
  };
  auto graph = par::pipeline(
      std::make_shared<factor::FactorProducerTask>(problem.n, 24),
      [](const std::shared_ptr<core::Task>&) {}, [&](auto in, auto out) {
        return par::meta_dynamic(std::move(in), std::move(out), 2, factory);
      });
  graph->run();

  ASSERT_EQ(workers.size(), 2u);
  const auto fast = workers[0]->tasks_processed();
  const auto slow = workers[1]->tasks_processed();
  EXPECT_EQ(fast + slow, 24u);
  EXPECT_GT(fast, slow);
}

TEST(ThrottledWorker, StaticBalancingSplitsEvenly) {
  const auto problem = factor::FactorProblem::generate(5, 64, 24);
  std::vector<std::shared_ptr<ThrottledWorker>> workers;
  std::mutex workers_mutex;
  auto factory = [&](std::size_t index,
                     std::shared_ptr<core::ChannelInputStream> in,
                     std::shared_ptr<core::ChannelOutputStream> out)
      -> std::shared_ptr<core::Process> {
    const double speed = index == 0 ? 4.0 : 1.0;
    auto worker = std::make_shared<ThrottledWorker>(
        std::move(in), std::move(out), speed, 0.002);
    std::scoped_lock lock{workers_mutex};
    workers.push_back(worker);
    return worker;
  };
  auto graph = par::pipeline(
      std::make_shared<factor::FactorProducerTask>(problem.n, 24),
      [](const std::shared_ptr<core::Task>&) {}, [&](auto in, auto out) {
        return par::meta_static(std::move(in), std::move(out), 2, factory);
      });
  graph->run();

  ASSERT_EQ(workers.size(), 2u);
  EXPECT_EQ(workers[0]->tasks_processed(), 12u);  // lock-step halves
  EXPECT_EQ(workers[1]->tasks_processed(), 12u);
}

TEST(ThrottledWorker, RejectsNonPositiveSpeed) {
  auto ch1 = std::make_shared<core::Channel>(64);
  auto ch2 = std::make_shared<core::Channel>(64);
  EXPECT_THROW(ThrottledWorker(ch1->input(), ch2->output(), 0.0, 0.01),
               UsageError);
}

TEST(Factory, IndexBeyondFleetThrows) {
  auto factory = throttled_factory({1.0, 2.0}, 0.01);
  auto ch1 = std::make_shared<core::Channel>(64);
  auto ch2 = std::make_shared<core::Channel>(64);
  EXPECT_THROW(factory(2, ch1->input(), ch2->output()), UsageError);
}

TEST(SequentialThrottled, TimeInverseToSpeed) {
  const auto problem = factor::FactorProblem::generate(6, 64, 5);
  const double t1 =
      run_sequential_throttled(problem.n, 5, 32, 1.0, 0.004);
  const double t2 =
      run_sequential_throttled(problem.n, 5, 32, 2.0, 0.004);
  EXPECT_NEAR(t1 / t2, 2.0, 0.8);
  EXPECT_GE(t1, 5 * 0.004 * 0.9);
}

}  // namespace
}  // namespace dpn::cluster
