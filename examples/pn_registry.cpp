// A standalone name registry (paper Section 4.1's RMI registry stand-in):
// compute servers register here; clients look them up by name.
//
//   ./pn_registry [port]
//
// Stop with SIGINT/SIGTERM.

#include <pthread.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>

#include "rmi/registry.hpp"

namespace {
/// SIGINT/SIGTERM, blocked in every thread (threads inherit the mask of
/// the thread that starts them) and taken synchronously by main's
/// sigwait: no handler runs, so nothing async-signal-unsafe can.
sigset_t stop_signals() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  return set;
}
}  // namespace

int main(int argc, char** argv) {
  const sigset_t stop = stop_signals();
  const auto port =
      static_cast<std::uint16_t>(argc > 1 ? std::atoi(argv[1]) : 0);
  dpn::rmi::Registry registry{port};
  std::printf("registry listening on port %u\n", registry.port());

  int signal = 0;
  sigwait(&stop, &signal);

  std::printf("registry shutting down; entries at exit:\n");
  for (const auto& [name, endpoint] : registry.entries()) {
    std::printf("  %s -> %s:%u\n", name.c_str(), endpoint.host.c_str(),
                endpoint.port);
  }
  registry.stop();
  return 0;
}
