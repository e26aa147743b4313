#include <gtest/gtest.h>

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <thread>

#include "core/channel.hpp"
#include "dist/node.hpp"
#include "processes/basic.hpp"
#include "processes/copy.hpp"
#include "rmi/compute_server.hpp"
#include "rmi/registry.hpp"

/// The real thing: a separate *operating-system process* runs the generic
/// compute server binary (examples/pn_server); this test plays client,
/// ships live process graphs to it over real sockets, and verifies the
/// data and the termination cascade cross the process boundary.
///
/// Every other distributed test runs multiple "servers" inside one
/// process; this one closes the gap to an actual deployment.
namespace dpn {
namespace {

using core::Channel;
using processes::Collect;
using processes::CollectSink;
using processes::Identity;
using processes::Sequence;

#ifndef PN_SERVER_PATH
#error "PN_SERVER_PATH must be defined by the build"
#endif

class ServerProcess {
 public:
  explicit ServerProcess(std::uint16_t registry_port) {
    pid_ = fork();
    if (pid_ == 0) {
      const std::string port = std::to_string(registry_port);
      execl(PN_SERVER_PATH, "pn_server", "external-server", "127.0.0.1",
            port.c_str(), static_cast<char*>(nullptr));
      _exit(127);  // exec failed
    }
  }

  ~ServerProcess() { stop(); }

  /// SIGTERM, then the server's wait status.
  int stop() {
    if (pid_ <= 0) return 0;
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

  bool alive() const {
    if (pid_ <= 0) return false;
    return kill(pid_, 0) == 0;
  }

 private:
  pid_t pid_ = -1;
};

rmi::ServerHandle wait_for_server(const rmi::Registry& registry,
                                  const std::shared_ptr<dist::NodeContext>&
                                      node) {
  rmi::RegistryClient client{"127.0.0.1", registry.port()};
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (auto endpoint = client.lookup("external-server")) {
      return rmi::ServerHandle{*endpoint, node};
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
  }
  throw std::runtime_error{"external pn_server never registered"};
}

TEST(MultiProcess, PipelineStageInSeparateOsProcess) {
  rmi::Registry registry{0};
  ServerProcess server{registry.port()};
  ASSERT_TRUE(server.alive());

  auto node = dist::NodeContext::create();
  auto handle = wait_for_server(registry, node);
  EXPECT_NO_THROW(handle.ping());

  // Ship a live pipeline stage into the other OS process; stream data
  // through it and back.
  auto ch1 = std::make_shared<Channel>(4096, "to-server");
  auto ch2 = std::make_shared<Channel>(4096, "from-server");
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto middle = std::make_shared<Identity>(ch1->input(), ch2->output());
  handle.submit(middle);

  auto source = std::make_shared<Sequence>(0, ch1->output(), 500);
  auto drain = std::make_shared<Collect>(ch2->input(), sink);
  std::jthread src{[&] { source->run(); }};
  drain->run();  // ends when the cascade crosses back from the server

  ASSERT_EQ(sink->size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(sink->values()[i], i);
  EXPECT_TRUE(server.alive());  // the server survived the graph's end
  server.stop();
}

TEST(MultiProcess, ConsumerLimitKillsRemoteProducerAcrossProcesses) {
  rmi::Registry registry{0};
  ServerProcess server{registry.port()};
  auto node = dist::NodeContext::create();
  auto handle = wait_for_server(registry, node);

  // An *unbounded* producer hosted in the other OS process; our local
  // consumer stops after 20 elements and the ChannelClosed cascade must
  // terminate the remote producer (no runaway process left behind --
  // paper Section 3.4's "no remote processes are left running").
  auto ch = std::make_shared<Channel>(4096, "stream");
  auto sink = std::make_shared<CollectSink<std::int64_t>>();
  auto producer = std::make_shared<Sequence>(0, ch->output());  // unbounded
  handle.submit(producer);

  auto drain = std::make_shared<Collect>(ch->input(), sink, 20);
  drain->run();
  ASSERT_EQ(sink->size(), 20u);

  // The graceful SIGTERM shutdown joins hosted processes: it can only
  // complete because the cascade stopped the producer.  pn_server takes
  // SIGTERM through sigwait, so it exits 0 rather than dying in the
  // flight recorder's signal dump.
  const int status = server.stop();
  EXPECT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace dpn
