// Live process migration -- the paper's Section 6.1 future work, working:
// "making it possible to re-distribute processes after execution has
// already begun, with the possibility that processes will be moved more
// than once."
//
// A throttled source streams samples to a local consumer.  Mid-stream it
// is parked at a step boundary and shipped to a compute server -- its
// channel reconnects as a socket automatically -- and the consumer
// receives every element exactly once, in order, without ever being
// paused itself.  (Repeated hops, B -> C with the Section 4.3 redirect,
// are exercised in tests/migrate_test.cpp.)
//
//   ./migration [elements]

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/channel.hpp"
#include "io/data.hpp"
#include "processes/basic.hpp"
#include "rmi/compute_server.hpp"
#include "rmi/migrate.hpp"

namespace {

/// A Sequence with a per-element delay so there is time to migrate it.
class SlowSource final : public dpn::core::IterativeProcess {
 public:
  SlowSource() = default;
  SlowSource(std::int64_t start,
             std::shared_ptr<dpn::core::ChannelOutputStream> out,
             long iterations, std::int64_t delay_us)
      : IterativeProcess(iterations), next_(start), delay_us_(delay_us) {
    track_output(std::move(out));
  }

  std::string type_name() const override { return "example.SlowSource"; }
  void write_fields(dpn::serial::ObjectOutputStream& out) const override {
    write_base(out);
    out.write_i64(next_);
    out.write_i64(delay_us_);
  }
  static std::shared_ptr<SlowSource> read_object(
      dpn::serial::ObjectInputStream& in) {
    auto p = std::make_shared<SlowSource>();
    p->read_base(in);
    p->next_ = in.read_i64();
    p->delay_us_ = in.read_i64();
    return p;
  }

 protected:
  void step() override {
    dpn::io::DataOutputStream out{*output(0)};
    out.write_i64(next_++);
    std::this_thread::sleep_for(std::chrono::microseconds{delay_us_});
  }

 private:
  std::int64_t next_ = 0;
  std::int64_t delay_us_ = 200;
};

[[maybe_unused]] const bool kRegistered =
    dpn::serial::register_type<SlowSource>("example.SlowSource");

}  // namespace

int main(int argc, char** argv) {
  using namespace dpn;
  const long total = argc > 1 ? std::atol(argv[1]) : 600;

  auto node_a = dist::NodeContext::create();
  rmi::ComputeServer server_b{"server-B"};

  auto ch = std::make_shared<core::Channel>(4096, "stream");
  auto source = std::make_shared<SlowSource>(0, ch->output(), total, 200);

  std::int64_t received = 0;
  bool in_order = true;
  std::jthread consumer{[&] {
    io::DataInputStream in{*ch->input()};
    try {
      for (;;) {
        const std::int64_t value = in.read_i64();
        if (value != received) in_order = false;
        ++received;
      }
    } catch (const IoError&) {
    }
  }};

  std::jthread local_run{[&] { source->run(); }};
  while (received < total / 4) std::this_thread::yield();
  std::printf("phase 1: %lld elements produced locally on A\n",
              static_cast<long long>(received));

  rmi::ServerHandle to_b{rmi::Endpoint{"127.0.0.1", server_b.port()},
                         node_a};
  if (!rmi::migrate(source, to_b)) {
    std::printf("source finished before migration\n");
    return 1;
  }
  local_run.join();
  std::printf("phase 2: source migrated to server B mid-stream "
              "(channel reconnected as a socket)\n");

  while (received < total / 2) std::this_thread::yield();
  std::printf("phase 3: %lld elements received, now produced on B\n",
              static_cast<long long>(received));
  consumer.join();

  std::printf("done: %lld/%ld elements, order %s\n",
              static_cast<long long>(received), total,
              in_order ? "preserved" : "VIOLATED");
  server_b.stop();
  return (received == total && in_order) ? 0 : 1;
}
