#include <gtest/gtest.h>

#include <thread>

#include "core/channel.hpp"
#include "dist/ship.hpp"
#include "processes/basic.hpp"
#include "processes/copy.hpp"
#include "rmi/compute_server.hpp"
#include "rmi/registry.hpp"

namespace dpn::rmi {
namespace {

using core::Channel;
using processes::Collect;
using processes::CollectSink;
using processes::Identity;
using processes::Sequence;

// --- Registry -----------------------------------------------------------------

TEST(Registry, RegisterAndLookup) {
  Registry registry{0};
  RegistryClient client{"127.0.0.1", registry.port()};
  client.register_name("alpha", Endpoint{"10.0.0.1", 1234});
  const auto found = client.lookup("alpha");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->host, "10.0.0.1");
  EXPECT_EQ(found->port, 1234);
}

TEST(Registry, LookupMissingReturnsNothing) {
  Registry registry{0};
  RegistryClient client{"127.0.0.1", registry.port()};
  EXPECT_FALSE(client.lookup("ghost").has_value());
}

TEST(Registry, ReRegistrationOverwrites) {
  Registry registry{0};
  RegistryClient client{"127.0.0.1", registry.port()};
  client.register_name("svc", Endpoint{"1.2.3.4", 1});
  client.register_name("svc", Endpoint{"5.6.7.8", 2});
  const auto found = client.lookup("svc");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->host, "5.6.7.8");
}

TEST(Registry, ListAndUnregister) {
  Registry registry{0};
  RegistryClient client{"127.0.0.1", registry.port()};
  client.register_name("a", Endpoint{"h", 1});
  client.register_name("b", Endpoint{"h", 2});
  auto names = client.list();
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
  client.unregister_name("a");
  EXPECT_FALSE(client.lookup("a").has_value());
  EXPECT_TRUE(client.lookup("b").has_value());
}

TEST(Registry, ManyConcurrentClients) {
  Registry registry{0};
  {
    std::vector<std::jthread> clients;
    for (int i = 0; i < 8; ++i) {
      clients.emplace_back([&registry, i] {
        RegistryClient client{"127.0.0.1", registry.port()};
        client.register_name("svc" + std::to_string(i),
                             Endpoint{"h", static_cast<std::uint16_t>(i + 1)});
      });
    }
  }
  RegistryClient client{"127.0.0.1", registry.port()};
  EXPECT_EQ(client.list().size(), 8u);
}

// --- Tasks over the compute server ----------------------------------------------

/// Doubles its value; result is another DoubleTask carrying 2v.
class DoubleTask final : public core::Task {
 public:
  DoubleTask() = default;
  explicit DoubleTask(std::int64_t value) : value_(value) {}
  std::int64_t value() const { return value_; }

  std::shared_ptr<core::Task> run() override {
    return std::make_shared<DoubleTask>(2 * value_);
  }
  std::string type_name() const override { return "test.DoubleTask"; }
  void write_fields(serial::ObjectOutputStream& out) const override {
    out.write_i64(value_);
  }
  static std::shared_ptr<DoubleTask> read_object(
      serial::ObjectInputStream& in) {
    auto task = std::make_shared<DoubleTask>();
    task->value_ = in.read_i64();
    return task;
  }

 private:
  std::int64_t value_ = 0;
};

/// A task type the "server" cannot know: never registered.
class UnknownTask final : public core::Task {
 public:
  std::shared_ptr<core::Task> run() override { return nullptr; }
  std::string type_name() const override { return "test.Unknown"; }
  void write_fields(serial::ObjectOutputStream&) const override {}
};

/// A task that always fails.
class FailingTask final : public core::Task {
 public:
  std::shared_ptr<core::Task> run() override {
    throw std::runtime_error{"task exploded"};
  }
  std::string type_name() const override { return "test.FailingTask"; }
  void write_fields(serial::ObjectOutputStream&) const override {}
  static std::shared_ptr<FailingTask> read_object(
      serial::ObjectInputStream&) {
    return std::make_shared<FailingTask>();
  }
};

[[maybe_unused]] const bool kRegistered =
    serial::register_type<DoubleTask>("test.DoubleTask") &&
    serial::register_type<FailingTask>("test.FailingTask");

TEST(ComputeServer, Ping) {
  ComputeServer server{"pinger"};
  ServerHandle handle{Endpoint{"127.0.0.1", server.port()}, nullptr};
  EXPECT_NO_THROW(handle.ping());
}

TEST(ComputeServer, RunTaskReturnsResult) {
  ComputeServer server{"tasker"};
  ServerHandle handle{Endpoint{"127.0.0.1", server.port()}, nullptr};
  auto result = handle.submit(std::make_shared<DoubleTask>(21)).get();
  auto doubled = std::dynamic_pointer_cast<DoubleTask>(result);
  ASSERT_TRUE(doubled);
  EXPECT_EQ(doubled->value(), 42);
  EXPECT_EQ(server.tasks_run(), 1u);
}

TEST(ComputeServer, RunTaskErrorPropagates) {
  ComputeServer server{"failer"};
  ServerHandle handle{Endpoint{"127.0.0.1", server.port()}, nullptr};
  try {
    handle.submit(std::make_shared<FailingTask>()).get();
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string{e.what()}.find("task exploded"), std::string::npos);
  }
}

TEST(ComputeServer, UnknownTypeReported) {
  ComputeServer server{"stranger"};
  ServerHandle handle{Endpoint{"127.0.0.1", server.port()}, nullptr};
  // The type serializes fine (name is embedded) but the server has no
  // factory for it -- the C++ stand-in for a missing codebase download.
  EXPECT_THROW(handle.submit(std::make_shared<UnknownTask>()).get(), IoError);
}

TEST(ComputeServer, ConcurrentTasks) {
  ComputeServer server{"parallel"};
  std::vector<std::int64_t> results(8, 0);
  {
    std::vector<std::jthread> clients;
    for (int i = 0; i < 8; ++i) {
      clients.emplace_back([&server, &results, i] {
        ServerHandle handle{Endpoint{"127.0.0.1", server.port()}, nullptr};
        auto result = handle.submit(std::make_shared<DoubleTask>(i)).get();
        results[static_cast<std::size_t>(i)] =
            std::dynamic_pointer_cast<DoubleTask>(result)->value();
      });
    }
  }
  for (int i = 0; i < 8; ++i) EXPECT_EQ(results[static_cast<std::size_t>(i)], 2 * i);
  EXPECT_EQ(server.tasks_run(), 8u);
}

TEST(ComputeServer, RegistryLookupAndRun) {
  Registry registry{0};
  ComputeServer server{"worker-1"};
  server.register_with("127.0.0.1", registry.port());
  auto handle = ServerHandle::lookup("127.0.0.1", registry.port(), "worker-1",
                                     nullptr);
  auto result = handle.submit(std::make_shared<DoubleTask>(5)).get();
  EXPECT_EQ(std::dynamic_pointer_cast<DoubleTask>(result)->value(), 10);
}

TEST(ComputeServer, LookupUnknownNameThrows) {
  Registry registry{0};
  EXPECT_THROW(
      ServerHandle::lookup("127.0.0.1", registry.port(), "nobody", nullptr),
      NetError);
}

TEST(ComputeServer, RunAsyncHostsProcessGraph) {
  // The paper's run(Runnable): ship a live pipeline stage to the server;
  // the channels reconnect automatically and data flows through it.
  auto client_node = dist::NodeContext::create();
  ComputeServer server{"host"};

  auto ch1 = std::make_shared<Channel>(256, "ch1");
  auto ch2 = std::make_shared<Channel>(256, "ch2");
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto middle = std::make_shared<Identity>(ch1->input(), ch2->output());

  ServerHandle handle{Endpoint{"127.0.0.1", server.port()}, client_node};
  handle.submit(middle);
  EXPECT_EQ(server.processes_hosted(), 1u);

  auto source = std::make_shared<Sequence>(0, ch1->output(), 64);
  auto drain = std::make_shared<Collect>(ch2->input(), sink);
  std::jthread src{[&] { source->run(); }};
  drain->run();

  ASSERT_EQ(sink->size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(sink->values()[i], i);
}

TEST(ComputeServer, RejectsCorruptShipment) {
  ComputeServer server{"corrupt"};
  auto stream = net::dial("127.0.0.1", server.port(), {});
  net::StreamOutput sink{stream};
  net::StreamInput source{stream};
  io::DataOutputStream out{sink};
  io::DataInputStream in{source};
  out.write_u8(1);  // kRunProcess
  const ByteVector junk{9, 9, 9};
  out.write_bytes({junk.data(), junk.size()});
  EXPECT_FALSE(in.read_bool());
  EXPECT_FALSE(in.read_string().empty());
}

}  // namespace
}  // namespace dpn::rmi
