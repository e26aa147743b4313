// A standalone generic compute server (paper Section 4.1): give it a name
// and a registry address and it will accept Process graphs and Tasks from
// any dpn client that links the same process/task types.
//
//   ./pn_server <name> [registry_host] [registry_port]
//
// Without registry arguments it just prints its own endpoint.  Stop with
// SIGINT/SIGTERM.

#include <pthread.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "rmi/compute_server.hpp"

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
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <name> [registry_host] [registry_port]\n",
                 argv[0]);
    return 2;
  }
  const char* name = argv[1];
  const sigset_t stop = stop_signals();

  dpn::rmi::ComputeServer server{name};
  std::printf("compute server '%s' listening on port %u (rendezvous %u)\n",
              name, server.port(), server.node()->rendezvous().port());

  if (argc >= 4) {
    const char* host = argv[2];
    const auto port = static_cast<std::uint16_t>(std::atoi(argv[3]));
    server.register_with(host, port);
    std::printf("registered with registry %s:%u\n", host, port);
  }

  int signal = 0;
  sigwait(&stop, &signal);
  std::printf("shutting down '%s' (%zu processes hosted, %zu tasks run)\n",
              name, server.processes_hosted(), server.tasks_run());
  server.stop();
  return 0;
}
