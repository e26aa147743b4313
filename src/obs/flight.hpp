#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "support/bytes.hpp"

/// The flight recorder: the runtime's one event plane.
///
/// Every event lands in a per-thread ring of 48-byte slots.  It leaves
/// the process as a post-mortem report (flight_report: a deadlock abort,
/// WorkerLost, a fatal or termination signal), as a Chrome trace
/// (flight_chrome_json: chrome://tracing, ui.perfetto.dev), or over the
/// FLIGHT_DUMP wire op, which rmi::fleet_dump and rmi::fleet_trace merge
/// across hosts onto one timeline.
///
/// A runtime level says how much is recorded (set_flight_level):
///  - kOff: nothing;
///  - kPostMortem, the default: only points that are already slow -- a
///    fiber parking, a channel blocking, a dial, a credit stall, a fault;
///  - kTokens: also one event per channel operation, process and task
///    lifecycle step, and the span pairs (kNetSend/kNetRecv,
///    kShipSend/kShipRecv) that a TraceContext carries across hosts.
/// Kahn determinacy makes a run recorded at kTokens the same run any
/// other schedule would give, so the token level is a debugging tool
/// that changes nothing it observes.
///
/// Design constraints, in order:
///  1. near-zero cost below the token level: a token-level site costs one
///     relaxed load of a namespace-scope atomic and a predictable branch,
///     and each record is a handful of plain stores into a thread-local
///     slot;
///  2. bounded memory: one fixed ring per recording thread (capacity
///     from DPN_FLIGHT_EVENTS, default 2048 events x 48 bytes, at every
///     level), oldest events overwritten, its pages touched only as
///     events land;
///  3. dumpable from anywhere, including a signal handler: rings live in
///     a lock-free fixed registry of leaked allocations, so a handler can
///     walk them with nothing but open/write/close;
///  4. mergeable across a fleet: events carry the host's node tag and a
///     steady-clock timestamp that the fleet merge aligns with
///     minimum-RTT TIME_SYNC probes.
///
/// Compile-time kill switch: build with -DDPN_FLIGHT=0 (CMake option
/// DPN_FLIGHT_RECORDER=OFF) and every record site becomes an empty
/// inline function.  At runtime, DPN_FLIGHT=0 in the environment starts
/// the process at kOff.
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
  // --- Token level only (FlightLevel::kTokens). ---
  // Channel operations (a = channel id, b = bytes; who = channel label).
  kChanWrite = 23,
  kChanRead = 24,
  // 25 was a buffered endpoint's flush; retired with the buffers.
  kChanClose = 26,
  // Process lifecycle (who = process name; stop: a = steps completed).
  kProcessStart = 27,
  kProcessStop = 28,
  // par framework (who = task type): a task written to a worker, a result
  // produced.
  kTaskDispatch = 29,
  kTaskComplete = 30,
  kMigrate = 31,      // a running process migrated (who = process name)
  kMonitorGrow = 32,  // who = channel label, a = old and b = new capacity
  // Causal span pairs (a = span id, b = bytes, or the successor token of a
  // redirect): the send half on one host and the receive half on the host
  // that adopted the same TraceContext.  The Chrome renderer joins the
  // halves with a flow arrow.
  kNetSend = 33,
  kNetRecv = 34,
  kShipSend = 35,
  kShipRecv = 36,
  // A process parked in an empty sched::BlockingQueue's pop (a = queue
  // id; resume: b = nanoseconds parked).  Who = the process.
  kQueueWait = 37,
  kQueueResume = 38,
  // A process parked until the mux connection it dials has the peer's
  // preface (a = port; resume: b = nanoseconds parked).  Who = the process.
  kNetDialWait = 39,
  kNetDialResume = 40,
};

const char* to_string(FlightKind kind);

/// True for the kinds recorded only at FlightLevel::kTokens.
constexpr bool is_token_kind(FlightKind kind) {
  return kind >= FlightKind::kChanWrite && kind <= FlightKind::kShipRecv;
}
constexpr bool is_flow_start(FlightKind kind) {
  return kind == FlightKind::kNetSend || kind == FlightKind::kShipSend;
}
constexpr bool is_flow_finish(FlightKind kind) {
  return kind == FlightKind::kNetRecv || kind == FlightKind::kShipRecv;
}

/// How much the recorder records (see the file comment).
enum class FlightLevel : std::uint8_t {
  kOff = 0,
  kPostMortem = 1,  // the default
  kTokens = 2,
};

/// The compact causal context stamped onto DATA_TRACED frames, traced
/// submits and redirect end messages (docs/PROTOCOLS.md Section 6).  17
/// bytes on the wire: trace_id:u64 span_id:u64 flags:u8, big-endian, sent
/// only at the token level.
struct TraceContext {
  static constexpr std::size_t kWireSize = 17;
  static constexpr std::uint8_t kSampled = 0x01;

  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint8_t flags = 0;

  bool valid() const { return trace_id != 0; }

  void encode(std::uint8_t out[kWireSize]) const;
  static TraceContext decode(const std::uint8_t in[kWireSize]);
};

/// The thread's ambient trace context: set by the frame/ship receive
/// paths, propagated by the send paths (a send reuses the ambient
/// trace_id and mints a fresh span_id, so spans chain causally).
TraceContext& current_trace_context();

/// Process-unique, never-zero span/trace ids.  Seeded per process from
/// the clock so two hosts (real ones) are unlikely to collide.
std::uint64_t next_span_id();
std::uint64_t new_trace_id();

/// One recorded event: 48 bytes, POD, safe to read torn (a racing slot
/// may mix two events' fields; it can never crash a dump).
struct FlightEvent {
  std::uint64_t ts_ns = 0;  // steady clock, absolute nanoseconds
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t tid = 0;     // hashed thread id
  std::uint16_t node = 0;    // host tag (see flight_set_node)
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
extern std::atomic<std::uint8_t> g_flight_level;
void flight_record_slow(FlightKind kind, std::string_view who,
                        std::uint64_t a = 0, std::uint64_t b = 0);
bool flight_retract_slow(FlightKind kind, std::uint64_t a);
}  // namespace detail

/// Recording at kPostMortem or above.
inline bool flight_enabled() {
  return detail::g_flight_level.load(std::memory_order_relaxed) != 0;
}

/// Recording at kTokens: the per-token gate, one relaxed load.
inline bool flight_tokens() {
  return detail::g_flight_level.load(std::memory_order_relaxed) >=
         static_cast<std::uint8_t>(FlightLevel::kTokens);
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

/// Records a token-level event; its arguments are evaluated only at
/// FlightLevel::kTokens.
#define DPN_FLIGHT_TOKEN(kind, who, ...)                                  \
  do {                                                                    \
    if (::dpn::obs::flight_tokens()) {                                    \
      ::dpn::obs::detail::flight_record_slow((kind), (who), ##__VA_ARGS__); \
    }                                                                     \
  } while (0)

/// Takes back the calling thread's newest event if it is `kind` on `a`:
/// the block event of a wait that turned out too short to be worth a
/// slot.  It still counts as recorded.  Only until the thread's own
/// events first wrap its ring; returns whether the event was taken back.
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
inline bool flight_tokens() { return false; }
inline void flight_record(FlightKind, std::uint64_t = 0, std::uint64_t = 0) {}
inline void flight_record_named(FlightKind, std::string_view,
                                std::uint64_t = 0, std::uint64_t = 0) {}
#define DPN_FLIGHT_TOKEN(kind, who, ...) \
  do {                                   \
  } while (0)
inline bool flight_retract(FlightKind, std::uint64_t) { return false; }
inline void flight_set_actor(std::string_view) {}

#endif  // DPN_FLIGHT

/// Sets the recording level for every thread.  Stays kOff at
/// DPN_FLIGHT=0.
void set_flight_level(FlightLevel level);
FlightLevel flight_level();

/// The calling thread's host tag on recorded events: ComputeServer
/// handler threads take the server's tag, and the processes they start
/// inherit it; everything else stays 0 (the local host).
void flight_set_node(std::uint16_t tag);
std::uint16_t flight_node();

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

/// Chrome trace_event JSON ("traceEvents" array form) of a window whose
/// events share one timeline (flight_export, or the fleet merge): an
/// instant event per slot, a flow-arrow begin/finish for each span kind
/// (its `a` is the arrow id), one pid row per host tag, and a "metadata"
/// object with the window's recorded/dropped accounting, so a wrapped
/// ring is never mistaken for a complete record.
std::string flight_chrome_json(const FlightExport& window);

/// Writes flight_report of the current process-wide window to
/// `<DPN_FLIGHT_DIR or .>/dpn-flight-<reason>-<pid>.txt` and returns the
/// path ("" on failure).  Records a kDump event and bumps the dumps
/// counter.  Rate limiting is the caller's job.
std::string flight_dump(std::string_view reason);

/// Async-signal-safe raw dump: walks the ring registry and writes every
/// ring's live slots to `fd` in the FlightExport wire layout (decode with
/// FlightExport::decode).  Only uses write(2).  Returns bytes written.
std::size_t flight_write_raw(int fd);

/// Installs (once) SIGSEGV/SIGABRT/SIGTERM/SIGQUIT handlers that
/// flight_write_raw into `<DPN_FLIGHT_DIR or .>/dpn-flight-crash-<pid>.bin`
/// and re-raise the default action; DPN_FLIGHT_CRASH=0 opts out, and a
/// signal the program already handles keeps its handler.
/// DPN_FLIGHT_DIR is read at the first call.  A program that takes
/// SIGTERM through sigwait (pn_server, pn_registry) blocks it, so the
/// handler never runs there.
void flight_install_crash_handler();

}  // namespace dpn::obs
