#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "support/bytes.hpp"

/// The flight recorder: an always-on black box for post-mortem analysis.
///
/// Unlike the opt-in Tracer (DPN_TRACE, one global ring, Chrome export),
/// the flight recorder runs *by default* and is built to answer one
/// question after something already went wrong: what was the runtime
/// doing in the seconds before the deadlock abort / WorkerLost / crash?
///
/// Design constraints, in order:
///  1. near-zero cost when the network is healthy: events are recorded
///     only at points that are already slow (a fiber parking, a channel
///     blocking, a dial, a credit stall, a fault) -- never on the
///     per-token fast path -- and each record is a handful of plain
///     stores into a thread-local slot;
///  2. bounded memory: one fixed ring per recording thread (capacity
///     from DPN_FLIGHT_EVENTS, default 2048 events x 48 bytes), oldest
///     events overwritten, its pages touched only as events land;
///  3. dumpable from anywhere, including a fatal signal handler: rings
///     live in a lock-free fixed registry of leaked allocations, so a
///     SIGSEGV handler can walk them with nothing but open/write/close;
///  4. mergeable across a fleet: events carry the host's node tag and a
///     steady-clock timestamp that rmi::fleet_dump aligns with the same
///     TIME_SYNC offsets fleet_trace uses.
///
/// Compile-time kill switch: build with -DDPN_FLIGHT=0 (CMake option
/// DPN_FLIGHT_RECORDER=OFF) and every call site becomes an empty inline
/// function -- measured 0% overhead.  At runtime, DPN_FLIGHT=0 in the
/// environment (or set_flight_enabled(false)) stops recording.
#ifndef DPN_FLIGHT
#define DPN_FLIGHT 1
#endif

namespace dpn::obs {

enum class FlightKind : std::uint8_t {
  // Scheduler (a = worker index; steal: b = victim worker).
  kSchedPark = 0,
  kSchedUnpark = 1,
  kSchedSteal = 2,
  // Channels (a = channel id; block: b = buffered bytes at the edge,
  // unblock: b = nanoseconds parked; who = the blocked process).
  // Block/unblock pairs bracket each park of a sched::Waiters wait that
  // lasts 1 ms or more (a shorter one takes its block back; one still
  // parked keeps it) -- a non-blocking op records nothing.  Local pipes
  // and typed rings record them, and so does a remote consumer parked on
  // its mux stream, tagged with its own host's id for the channel.
  kChanBlockRead = 3,
  kChanBlockWrite = 4,
  kChanUnblockRead = 5,
  kChanUnblockWrite = 6,
  // Static topology, recorded once per endpoint at Network::start() /
  // process hosting (a = channel id; who = process name).  These give the
  // wait-for analysis reader/writer attribution even for channels no one
  // has touched yet.
  kChanReader = 7,
  kChanWriter = 8,
  // Channel id -> label binding, recorded once at channel creation
  // (a = channel id; who = label).
  kChanLabel = 9,
  // Transport edges (who = peer "host:port" or stream label).
  kNetDial = 10,      // a = 1 on success, 0 on failure
  kNetFin = 11,       // a = stream id
  kNetRst = 12,       // a = stream id
  kCreditStall = 13,  // a = stream/channel id
  kCreditResume = 14, // a = stream/channel id, b = stall ns
  // Distribution cut points (who = channel label).
  kShip = 15,
  kRedirect = 16,
  // Faults and post-mortem markers.
  kFaultInjected = 17,  // who = rule kind, a = rule value
  kWorkerLost = 18,     // who = what was lost
  kDeadlockAbort = 19,  // who = why
  kDump = 20,           // a dump was taken (who = reason)
  // A process parked until its channel's peer dials in to the rendezvous
  // (a = token; resume: b = nanoseconds parked).  Who = the process.
  kRendezvousWait = 21,
  kRendezvousResume = 22,
};

const char* to_string(FlightKind kind);

/// One recorded event: 48 bytes, POD, safe to read torn (a racing slot
/// may mix two events' fields; it can never crash a dump).
struct FlightEvent {
  std::uint64_t ts_ns = 0;  // steady clock, absolute nanoseconds
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t tid = 0;     // hashed thread id
  std::uint16_t node = 0;    // host tag (see obs::set_node_tag)
  std::uint8_t kind = 0;
  std::uint8_t pad = 0;
  char who[16] = {};  // truncated actor: process name, label, peer, ...
};
static_assert(sizeof(FlightEvent) == 48, "flight events are packed slots");

/// Lifetime accounting across every ring in the process.
struct FlightCounters {
  std::uint64_t recorded = 0;  // events written (including overwritten)
  std::uint64_t dropped = 0;   // events lost to ring wraparound
  std::uint64_t dumps = 0;     // dump files written
};

/// A host's recent window packaged for the FLIGHT_DUMP wire op.
struct FlightExport {
  std::uint32_t node = 0;       // exporting host's tag
  std::uint64_t export_ns = 0;  // steady clock at export time
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t dumps = 0;
  std::vector<FlightEvent> events;  // oldest first

  ByteVector encode() const;
  static FlightExport decode(ByteSpan bytes);
};

#if DPN_FLIGHT

namespace detail {
extern std::atomic<bool> g_flight_on;
void flight_record_slow(FlightKind kind, std::string_view who,
                        std::uint64_t a, std::uint64_t b);
bool flight_retract_slow(FlightKind kind, std::uint64_t a);
}  // namespace detail

inline bool flight_enabled() {
  return detail::g_flight_on.load(std::memory_order_relaxed);
}

/// Records one event attributed to the thread's ambient actor (see
/// flight_set_actor); `who` overrides the actor when non-empty.
inline void flight_record(FlightKind kind, std::uint64_t a = 0,
                          std::uint64_t b = 0) {
  if (flight_enabled()) detail::flight_record_slow(kind, {}, a, b);
}

inline void flight_record_named(FlightKind kind, std::string_view who,
                                std::uint64_t a = 0, std::uint64_t b = 0) {
  if (flight_enabled()) detail::flight_record_slow(kind, who, a, b);
}

/// Takes back the calling thread's newest event if it is `kind` on `a`:
/// the block event of a wait that turned out too short to be worth a
/// slot.  It still counts as recorded.  Only while the thread's ring has
/// not wrapped; returns whether the event was taken back.
inline bool flight_retract(FlightKind kind, std::uint64_t a) {
  return flight_enabled() && detail::flight_retract_slow(kind, a);
}

/// Sets the calling thread's ambient actor name (truncated to 15 chars):
/// the process a scheduler worker is currently running, or the role of a
/// service thread.  Events record it as `who` so a dump reads in terms
/// of processes, not thread ids.
void flight_set_actor(std::string_view name);

#else  // DPN_FLIGHT == 0: everything inlines to nothing.

inline bool flight_enabled() { return false; }
inline void flight_record(FlightKind, std::uint64_t = 0, std::uint64_t = 0) {}
inline void flight_record_named(FlightKind, std::string_view,
                                std::uint64_t = 0, std::uint64_t = 0) {}
inline bool flight_retract(FlightKind, std::uint64_t) { return false; }
inline void flight_set_actor(std::string_view) {}

#endif  // DPN_FLIGHT

/// Runtime toggle (tests; production leaves it on).  No-op at
/// DPN_FLIGHT=0.
void set_flight_enabled(bool on);

/// This thread's host tag on recorded events (forwarded from
/// obs::set_node_tag; truncated to the event's u16 field).
void flight_set_node(std::uint16_t tag);

/// Drops every ring's contents (testing: makes ring-wrap runs
/// deterministic from a known-empty state).  Counters keep their
/// lifetime totals.
void flight_reset();

/// Lifetime totals summed across all rings.
FlightCounters flight_counters();

/// This process's recent window, merged across all thread rings and
/// sorted oldest-first; `node_filter` >= 0 keeps only that host tag.
FlightExport flight_export(std::int64_t node_filter = -1);

/// Human-readable post-mortem: a timeline of `events` (already merged /
/// offset-aligned, oldest first) followed by a wait-for analysis that
/// names still-blocked processes, the channels they wait on, and -- when
/// the block edges close a loop -- the exact deadlock cycle.
std::string flight_report(const std::vector<FlightEvent>& events,
                          std::string_view reason);

/// Just the wait-for section of flight_report (tests assert on it).
std::string flight_wait_for(const std::vector<FlightEvent>& events);

/// Writes flight_report of the current process-wide window to
/// `<DPN_FLIGHT_DIR or .>/dpn-flight-<reason>-<pid>.txt` and returns the
/// path ("" on failure).  Records a kDump event and bumps the dumps
/// counter.  Rate limiting is the caller's job.
std::string flight_dump(std::string_view reason);

/// Async-signal-safe raw dump: walks the ring registry and writes every
/// ring's live slots to `fd` in the FlightExport wire layout (decode with
/// FlightExport::decode).  Only uses write(2).  Returns bytes written.
std::size_t flight_write_raw(int fd);

/// Installs (once) SIGSEGV/SIGABRT handlers that flight_write_raw into
/// `dpn-flight-crash-<pid>.bin` and re-raise the default action.
void flight_install_crash_handler();

}  // namespace dpn::obs
