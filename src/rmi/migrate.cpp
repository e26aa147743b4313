#include "rmi/migrate.hpp"

#include "obs/flight.hpp"
#include "support/log.hpp"

namespace dpn::rmi {

bool migrate(const std::shared_ptr<core::IterativeProcess>& process,
             ServerHandle& destination) {
  process->request_pause();
  if (!process->await_pause()) {
    log::debug("migrate: process ", process->name(),
               " finished before it could be parked");
    return false;
  }
  try {
    destination.submit(process);
    DPN_FLIGHT_TOKEN(obs::FlightKind::kMigrate, process->name());
  } catch (const NetError&) {
    // Could not reach the server: submit connects before it
    // serializes, so the graph is untouched and resuming in place is
    // safe.
    process->resume();
    throw;
  }
  // Any other failure happened after serialization began; the endpoints
  // may already be switched toward the destination, so the local instance
  // must not resume.  The exception reports the torn graph to the caller.
  process->abandon();
  return true;
}

}  // namespace dpn::rmi
