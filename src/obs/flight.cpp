#include "obs/flight.hpp"

#include <fcntl.h>
#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <thread>

namespace dpn::obs {

namespace {

constexpr std::size_t kEventWire = 48;
constexpr std::size_t kHeaderWire = 4 + 8 + 8 + 8 + 8 + 4;

void encode_event(std::uint8_t* p, const FlightEvent& ev) {
  put_u64(p, ev.ts_ns);
  put_u64(p + 8, ev.a);
  put_u64(p + 16, ev.b);
  put_u32(p + 24, ev.tid);
  put_u16(p + 28, ev.node);
  p[30] = ev.kind;
  p[31] = 0;
  std::memcpy(p + 32, ev.who, sizeof ev.who);
}

FlightEvent decode_event(const std::uint8_t* p) {
  FlightEvent ev;
  ev.ts_ns = get_u64(p);
  ev.a = get_u64(p + 8);
  ev.b = get_u64(p + 16);
  ev.tid = get_u32(p + 24);
  ev.node = get_u16(p + 28);
  ev.kind = p[30];
  std::memcpy(ev.who, p + 32, sizeof ev.who);
  ev.who[sizeof ev.who - 1] = '\0';
  return ev;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Span/trace ids: one process-wide counter, seeded from the wall clock
/// so two real hosts allocating independently are unlikely to collide
/// (collision cost: a spurious flow arrow in a merged trace, nothing
/// functional).  Never returns 0 -- 0 means "no context".
std::atomic<std::uint64_t>& id_counter() {
  static std::atomic<std::uint64_t> counter{(now_ns() << 16) | 1};
  return counter;
}

thread_local TraceContext t_context;

void append_json_escaped(std::string& out, const char* s, std::size_t max) {
  for (std::size_t i = 0; i < max && s[i] != '\0'; ++i) {
    const char c = s[i];
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
}

std::string actor_of(const FlightEvent& ev) {
  if (ev.who[0] != '\0') {
    return std::string{ev.who,
                       strnlen(ev.who, sizeof ev.who)};
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "tid:%08x", ev.tid);
  return std::string{buf};
}

bool is_channel_kind(FlightKind k) {
  switch (k) {
    case FlightKind::kChanBlockRead:
    case FlightKind::kChanBlockWrite:
    case FlightKind::kChanUnblockRead:
    case FlightKind::kChanUnblockWrite:
    case FlightKind::kChanReader:
    case FlightKind::kChanWriter:
    case FlightKind::kChanLabel:
    case FlightKind::kRendezvousWait:
    case FlightKind::kRendezvousResume:
    case FlightKind::kChanWrite:
    case FlightKind::kChanRead:
    case FlightKind::kChanClose:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::kSchedPark: return "sched.park";
    case FlightKind::kSchedUnpark: return "sched.unpark";
    case FlightKind::kSchedSteal: return "sched.steal";
    case FlightKind::kChanBlockRead: return "chan.block.read";
    case FlightKind::kChanBlockWrite: return "chan.block.write";
    case FlightKind::kChanUnblockRead: return "chan.unblock.read";
    case FlightKind::kChanUnblockWrite: return "chan.unblock.write";
    case FlightKind::kChanReader: return "chan.reader";
    case FlightKind::kChanWriter: return "chan.writer";
    case FlightKind::kChanLabel: return "chan.label";
    case FlightKind::kNetDial: return "net.dial";
    case FlightKind::kNetFin: return "net.fin";
    case FlightKind::kNetRst: return "net.rst";
    case FlightKind::kCreditStall: return "net.credit.stall";
    case FlightKind::kCreditResume: return "net.credit.resume";
    case FlightKind::kShip: return "dist.ship";
    case FlightKind::kRedirect: return "dist.redirect";
    case FlightKind::kFaultInjected: return "fault.injected";
    case FlightKind::kWorkerLost: return "fault.worker_lost";
    case FlightKind::kDeadlockAbort: return "ddm.abort";
    case FlightKind::kDump: return "flight.dump";
    case FlightKind::kRendezvousWait: return "dist.rendezvous.wait";
    case FlightKind::kRendezvousResume: return "dist.rendezvous.resume";
    case FlightKind::kChanWrite: return "channel.write";
    case FlightKind::kChanRead: return "channel.read";
    case FlightKind::kChanClose: return "channel.close";
    case FlightKind::kProcessStart: return "process.start";
    case FlightKind::kProcessStop: return "process.stop";
    case FlightKind::kTaskDispatch: return "par.dispatch";
    case FlightKind::kTaskComplete: return "par.complete";
    case FlightKind::kMigrate: return "dist.migrate";
    case FlightKind::kMonitorGrow: return "monitor.grow";
    case FlightKind::kNetSend: return "net.send";
    case FlightKind::kNetRecv: return "net.recv";
    case FlightKind::kShipSend: return "ship.send";
    case FlightKind::kShipRecv: return "ship.recv";
    case FlightKind::kQueueWait: return "sched.queue.wait";
    case FlightKind::kQueueResume: return "sched.queue.resume";
    case FlightKind::kNetDialWait: return "net.dial.wait";
    case FlightKind::kNetDialResume: return "net.dial.resume";
  }
  return "unknown";
}

void TraceContext::encode(std::uint8_t out[kWireSize]) const {
  put_u64(out, trace_id);
  put_u64(out + 8, span_id);
  out[16] = flags;
}

TraceContext TraceContext::decode(const std::uint8_t in[kWireSize]) {
  TraceContext ctx;
  ctx.trace_id = get_u64(in);
  ctx.span_id = get_u64(in + 8);
  ctx.flags = in[16];
  return ctx;
}

TraceContext& current_trace_context() { return t_context; }

std::uint64_t next_span_id() {
  // Spans are minted once per traced write on the channel hot path, so
  // amortize the shared fetch_add over thread-local blocks.  Ids stay
  // unique (blocks never overlap); only ordering across threads is
  // sacrificed, and span ids carry no ordering meaning.
  constexpr std::uint64_t kBlock = 256;
  thread_local std::uint64_t next = 0;
  thread_local std::uint64_t end = 0;
  if (next == end) {
    next = id_counter().fetch_add(kBlock, std::memory_order_relaxed);
    end = next + kBlock;
  }
  return next++;
}

std::uint64_t new_trace_id() {
  return id_counter().fetch_add(1, std::memory_order_relaxed);
}

ByteVector FlightExport::encode() const {
  ByteVector out(kHeaderWire + events.size() * kEventWire);
  std::uint8_t* p = out.data();
  put_u32(p, node);
  put_u64(p + 4, export_ns);
  put_u64(p + 12, recorded);
  put_u64(p + 20, dropped);
  put_u64(p + 28, dumps);
  put_u32(p + 36, static_cast<std::uint32_t>(events.size()));
  p += kHeaderWire;
  for (const FlightEvent& ev : events) {
    encode_event(p, ev);
    p += kEventWire;
  }
  return out;
}

FlightExport FlightExport::decode(ByteSpan bytes) {
  FlightExport exp;
  if (bytes.size() < kHeaderWire) return exp;
  const std::uint8_t* p = bytes.data();
  exp.node = get_u32(p);
  exp.export_ns = get_u64(p + 4);
  exp.recorded = get_u64(p + 12);
  exp.dropped = get_u64(p + 20);
  exp.dumps = get_u64(p + 28);
  std::uint32_t count = get_u32(p + 36);
  const std::size_t room =
      (bytes.size() - kHeaderWire) / kEventWire;
  // A crash dump may be truncated mid-write: keep what survived.
  count = static_cast<std::uint32_t>(
      std::min<std::size_t>(count, room));
  exp.events.reserve(count);
  p += kHeaderWire;
  for (std::uint32_t i = 0; i < count; ++i) {
    exp.events.push_back(decode_event(p));
    p += kEventWire;
  }
  return exp;
}

// ---------------------------------------------------------------------------
// Post-mortem rendering (mode-independent: works on decoded events even in
// a DPN_FLIGHT=0 build).

std::string flight_wait_for(const std::vector<FlightEvent>& events) {
  struct Wait {
    bool writing = false;
    std::uint64_t ch = 0;  // the token or queue id off a channel
    std::uint64_t buffered = 0;
    const char* off_channel = nullptr;  // what a wait off a channel awaits
  };
  std::map<std::uint64_t, std::string> labels;
  std::map<std::uint64_t, std::set<std::string>> readers;
  std::map<std::uint64_t, std::set<std::string>> writers;
  std::map<std::string, Wait> blocked;
  for (const FlightEvent& ev : events) {
    const auto kind = static_cast<FlightKind>(ev.kind);
    const std::string who = actor_of(ev);
    switch (kind) {
      case FlightKind::kChanLabel:
        labels[ev.a] = who;
        break;
      case FlightKind::kChanReader:
        readers[ev.a].insert(who);
        break;
      case FlightKind::kChanWriter:
        writers[ev.a].insert(who);
        break;
      case FlightKind::kChanBlockRead:
        readers[ev.a].insert(who);
        blocked[who] = Wait{false, ev.a, ev.b};
        break;
      case FlightKind::kChanBlockWrite:
        writers[ev.a].insert(who);
        blocked[who] = Wait{true, ev.a, ev.b};
        break;
      case FlightKind::kRendezvousWait:
        blocked[who] =
            Wait{false, ev.a, 0, "awaiting its remote peer (rendezvous token "};
        break;
      case FlightKind::kQueueWait:
        blocked[who] = Wait{false, ev.a, 0, "popping an empty queue (queue "};
        break;
      case FlightKind::kNetDialWait:
        blocked[who] =
            Wait{false, ev.a, 0, "dialing a mux connection (port "};
        break;
      case FlightKind::kChanUnblockRead:
      case FlightKind::kChanUnblockWrite:
      case FlightKind::kRendezvousResume:
      case FlightKind::kQueueResume:
      case FlightKind::kNetDialResume:
        blocked.erase(who);
        break;
      default:
        break;
    }
  }

  const auto describe = [&](const std::string& who) {
    const Wait& w = blocked.at(who);
    std::string line = who;
    if (w.off_channel != nullptr) {
      return line + " blocked " + w.off_channel + std::to_string(w.ch) + ")";
    }
    line += w.writing ? " blocked writing ch" : " blocked reading ch";
    line += std::to_string(w.ch);
    const auto label = labels.find(w.ch);
    if (label != labels.end() && !label->second.empty()) {
      line += " '" + label->second + "'";
    }
    return line;
  };

  std::string out = "wait-for:\n";
  if (blocked.empty()) {
    out += "  no blocked processes in the recorded window\n";
    return out;
  }
  for (const auto& [who, wait] : blocked) {
    out += "  " + describe(who);
    if (wait.off_channel == nullptr) {
      out += " (" + std::to_string(wait.buffered) + " bytes buffered)";
    }
    out += "\n";
  }

  // Edges: a blocked reader waits for the channel's writers; a blocked
  // writer waits for its readers.  Only blocked actors can extend a
  // cycle -- a runnable neighbour will eventually unblock the edge.
  const auto successors = [&](const std::string& who) {
    std::vector<std::string> next;
    const Wait& w = blocked.at(who);
    // A rendezvous peer is on another host; a queue has no named writer.
    if (w.off_channel != nullptr) return next;
    const auto& peers = w.writing ? readers[w.ch] : writers[w.ch];
    for (const std::string& peer : peers) {
      if (peer != who && blocked.count(peer) != 0) next.push_back(peer);
    }
    return next;
  };

  // Walk from each blocked actor; the first closed loop (deterministic:
  // actors and successor sets iterate in sorted order) is the reported
  // cycle.
  for (const auto& [start, wait] : blocked) {
    (void)wait;
    std::vector<std::string> path{start};
    std::set<std::string> on_path{start};
    std::function<bool()> walk = [&]() -> bool {
      for (const std::string& next : successors(path.back())) {
        if (on_path.count(next) != 0) {
          // Trim the tail to the cycle proper.
          const auto cycle_start =
              std::find(path.begin(), path.end(), next);
          std::string line = "  cycle: ";
          for (auto it = cycle_start; it != path.end(); ++it) {
            line += describe(*it) + " -> ";
          }
          line += next + " [cycle]\n";
          out += line;
          return true;
        }
        path.push_back(next);
        on_path.insert(next);
        if (walk()) return true;
        on_path.erase(next);
        path.pop_back();
      }
      return false;
    };
    if (walk()) return out;
  }
  out += "  no cycle among blocked processes (stall, not a proven deadlock)\n";
  return out;
}

std::string flight_chrome_json(const FlightExport& window) {
  std::string out = "{\"traceEvents\":[";
  bool comma = false;
  const auto open = [&](const char* name) {
    if (comma) out += ',';
    comma = true;
    out += "{\"name\":\"";
    out += name;
    out += '"';
  };
  const auto place = [&](std::uint32_t pid, std::uint32_t tid,
                         std::uint64_t ts_ns) {
    out += ",\"pid\":" + std::to_string(pid);
    out += ",\"tid\":" + std::to_string(tid);
    // Chrome expects microseconds; keep sub-microsecond as a fraction.
    char ts[48];
    std::snprintf(ts, sizeof ts, ",\"ts\":%llu.%03llu",
                  static_cast<unsigned long long>(ts_ns / 1000),
                  static_cast<unsigned long long>(ts_ns % 1000));
    out += ts;
  };
  // One Chrome "process" row per host tag, so a merged fleet trace reads
  // host by host.
  std::set<std::uint16_t> nodes;
  std::uint64_t origin = ~std::uint64_t{0};
  for (const FlightEvent& ev : window.events) {
    nodes.insert(ev.node);
    origin = std::min(origin, ev.ts_ns);
  }
  for (const std::uint16_t node : nodes) {
    open("process_name");
    out += ",\"ph\":\"M\",\"pid\":" + std::to_string(node);
    out += ",\"args\":{\"name\":\"";
    out += node == 0 ? "dpn host 0 (local)" : "dpn host " + std::to_string(node);
    out += "\"}}";
  }
  for (const FlightEvent& ev : window.events) {
    const auto kind = static_cast<FlightKind>(ev.kind);
    const std::uint64_t ts = ev.ts_ns - origin;
    open(to_string(kind));
    out += ",\"ph\":\"i\",\"s\":\"t\"";
    place(ev.node, ev.tid, ts);
    out += ",\"args\":{\"who\":\"";
    append_json_escaped(out, ev.who, sizeof ev.who);
    out += "\",\"a\":" + std::to_string(ev.a);
    out += ",\"b\":" + std::to_string(ev.b) + "}}";
    // A span kind also carries a flow arrow.  Chrome binds begin and
    // finish by category, name and id, so both ends use one name and the
    // span id from the wire as the id.
    if (is_flow_start(kind) || is_flow_finish(kind)) {
      open("dpn.flow");
      out += ",\"cat\":\"dpn.flow\",\"ph\":\"";
      out += is_flow_start(kind) ? "s\"" : "f\",\"bp\":\"e\"";
      out += ",\"id\":" + std::to_string(ev.a);
      place(ev.node, ev.tid, ts);
      out += '}';
    }
  }
  out += "],\"metadata\":{\"recorded\":" + std::to_string(window.recorded);
  out += ",\"dropped\":" + std::to_string(window.dropped) + "}}";
  return out;
}

std::string flight_report(const std::vector<FlightEvent>& events,
                          std::string_view reason) {
  std::string out = "=== dpn flight recorder dump";
  if (!reason.empty()) {
    out += ": ";
    out += reason;
  }
  out += " ===\n";
  out += "events: " + std::to_string(events.size()) + "\n";
  std::uint64_t origin = ~std::uint64_t{0};
  for (const FlightEvent& ev : events) origin = std::min(origin, ev.ts_ns);
  if (!events.empty()) {
    out += "timeline (oldest first, +s since first event):\n";
  }
  char buf[64];
  for (const FlightEvent& ev : events) {
    const std::uint64_t rel = ev.ts_ns - origin;
    std::snprintf(buf, sizeof buf, "  +%llu.%06llus node%u [",
                  static_cast<unsigned long long>(rel / 1000000000),
                  static_cast<unsigned long long>(rel % 1000000000 / 1000),
                  static_cast<unsigned>(ev.node));
    out += buf;
    out += actor_of(ev);
    out += "] ";
    out += to_string(static_cast<FlightKind>(ev.kind));
    if (is_channel_kind(static_cast<FlightKind>(ev.kind))) {
      out += " ch=" + std::to_string(ev.a);
      out += " b=" + std::to_string(ev.b);
    } else {
      out += " a=" + std::to_string(ev.a);
      out += " b=" + std::to_string(ev.b);
    }
    out += '\n';
  }
  out += flight_wait_for(events);
  return out;
}

#if DPN_FLIGHT

// ---------------------------------------------------------------------------
// Recording machinery.

namespace {

/// One ring per live recording thread.  Taken on the thread's first
/// event, registered in a lock-free fixed array, and never freed: a
/// post-mortem dump must be able to read the events of threads that have
/// already exited (and a signal handler must be able to walk the registry
/// without taking any lock).  A thread that exits hands its ring to the
/// free list, and the next new thread records on into it, so the 256
/// slots bound the threads recording at once, not those ever started.
struct FlightRing {
  std::atomic<std::uint64_t> seq{0};      // next slot to write
  // Oldest slot still in the window: flight_reset, or a retract past wrap.
  std::atomic<std::uint64_t> discard{0};
  // Events ever written: seq, plus those flight_retract took back.
  std::atomic<std::uint64_t> written{0};
  std::uint64_t claimed_at = 0;  // seq when the current owner took it
  std::uint32_t tid = 0;
  std::uint32_t mask = 0;
  FlightEvent* slots = nullptr;
  FlightRing* next_free = nullptr;  // guarded by g_free_mutex
};

constexpr std::size_t kMaxRings = 256;
std::atomic<FlightRing*> g_rings[kMaxRings];
std::atomic<std::size_t> g_ring_count{0};
std::atomic<std::uint64_t> g_dumps{0};
/// Rings of exited threads; written under g_free_mutex, read without it
/// only to skip the lock when empty.
std::mutex g_free_mutex;
std::atomic<FlightRing*> g_free{nullptr};

/// Crash-dump directory, captured at handler-install time (getenv is not
/// async-signal-safe).
char g_crash_dir[192] = ".";

std::uint8_t initial_flight_level() {
  const char* env = std::getenv("DPN_FLIGHT");
  return static_cast<std::uint8_t>(env != nullptr && env[0] == '0'
                                       ? FlightLevel::kOff
                                       : FlightLevel::kPostMortem);
}

std::size_t ring_capacity() {
  static const std::size_t cap = [] {
    std::size_t want = 2048;
    if (const char* env = std::getenv("DPN_FLIGHT_EVENTS")) {
      const long v = std::atol(env);
      if (v > 0) want = static_cast<std::size_t>(v);
    }
    std::size_t p = 64;
    while (p < want && p < (std::size_t{1} << 20)) p <<= 1;
    return p;
  }();
  return cap;
}

std::uint32_t thread_tag() {
  static thread_local const std::uint32_t tag = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  return tag;
}

thread_local FlightRing* t_ring = nullptr;
thread_local char t_actor[16] = {};
thread_local std::uint16_t t_node = 0;

extern "C" void release_ring(void* ring) {
  // pthread key destructors run after the thread's C++ thread_local
  // destructors, so events those record still land in this ring.  One
  // recorded later still (by another key's destructor) takes a ring anew.
  t_ring = nullptr;
  std::scoped_lock lock{g_free_mutex};
  static_cast<FlightRing*>(ring)->next_free =
      g_free.load(std::memory_order_relaxed);
  g_free.store(static_cast<FlightRing*>(ring), std::memory_order_relaxed);
}

FlightRing* claim_ring() {
  if (g_free.load(std::memory_order_relaxed) != nullptr) {
    std::scoped_lock lock{g_free_mutex};
    if (FlightRing* ring = g_free.load(std::memory_order_relaxed)) {
      g_free.store(ring->next_free, std::memory_order_relaxed);
      return ring;
    }
  }
  // Registry full (256 threads recording at once): this thread records
  // nothing until one of them exits, rather than sharing someone's ring.
  if (g_ring_count.load(std::memory_order_relaxed) >= kMaxRings) {
    return nullptr;
  }
  const std::size_t index =
      g_ring_count.fetch_add(1, std::memory_order_relaxed);
  if (index >= kMaxRings) return nullptr;
  auto* ring = new FlightRing;
  const std::size_t cap = ring_capacity();
  ring->mask = static_cast<std::uint32_t>(cap - 1);
  // Fresh anonymous pages read as zeroed events and cost memory only once
  // an event lands on them: a thread whose waits are all short (and so
  // retracted, see flight_retract) keeps reusing its first page.
  void* pages = ::mmap(nullptr, cap * sizeof(FlightEvent),
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
  ring->slots = pages != MAP_FAILED ? static_cast<FlightEvent*>(pages)
                                    : new FlightEvent[cap]();
  g_rings[index].store(ring, std::memory_order_release);
  return ring;
}

FlightRing* ring_for_thread() {
  if (t_ring != nullptr) return t_ring;
  static const pthread_key_t key = [] {
    pthread_key_t k{};
    ::pthread_key_create(&k, release_ring);
    return k;
  }();
  FlightRing* ring = claim_ring();
  if (ring == nullptr) return nullptr;
  ring->tid = thread_tag();
  ring->claimed_at = ring->seq.load(std::memory_order_relaxed);
  ::pthread_setspecific(key, ring);
  t_ring = ring;
  return ring;
}

std::size_t registry_size() {
  return std::min(g_ring_count.load(std::memory_order_acquire), kMaxRings);
}

/// [first, last) window of a ring's still-live slots.
void ring_window(const FlightRing& ring, std::uint64_t& first,
                 std::uint64_t& last) {
  last = ring.seq.load(std::memory_order_acquire);
  const std::uint64_t cap = std::uint64_t{ring.mask} + 1;
  first = last > cap ? last - cap : 0;
  first = std::max(first, ring.discard.load(std::memory_order_relaxed));
}

extern "C" void flight_crash_handler(int sig) {
  // Async-signal-safe only: open/write/close plus integer formatting by
  // hand.  The raw binary rings go to dpn-flight-crash-<pid>.bin; render
  // with `dpn_top --flight=FILE` (or FlightExport::decode).
  char path[256];
  std::size_t n = 0;
  for (; n < sizeof path - 40 && g_crash_dir[n] != '\0'; ++n) {
    path[n] = g_crash_dir[n];
  }
  const char* stem = "/dpn-flight-crash-";
  for (const char* c = stem; *c != '\0'; ++c) path[n++] = *c;
  unsigned pid = static_cast<unsigned>(::getpid());
  char digits[12];
  std::size_t d = 0;
  do {
    digits[d++] = static_cast<char>('0' + pid % 10);
    pid /= 10;
  } while (pid != 0);
  while (d > 0) path[n++] = digits[--d];
  path[n++] = '.';
  path[n++] = 'b';
  path[n++] = 'i';
  path[n++] = 'n';
  path[n] = '\0';
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    flight_write_raw(fd);
    ::close(fd);
  }
  // SA_RESETHAND restored the default disposition; re-raise so the
  // process still dies with the original signal (core dumps intact).
  ::raise(sig);
}

}  // namespace

namespace detail {

std::atomic<std::uint8_t> g_flight_level{initial_flight_level()};

void flight_record_slow(FlightKind kind, std::string_view who,
                        std::uint64_t a, std::uint64_t b) {
  FlightRing* ring = ring_for_thread();
  if (ring == nullptr) return;
  const std::uint64_t s = ring->seq.load(std::memory_order_relaxed);
  FlightEvent& ev = ring->slots[s & ring->mask];
  ev.ts_ns = now_ns();
  ev.a = a;
  ev.b = b;
  ev.tid = ring->tid;
  ev.node = t_node;
  ev.kind = static_cast<std::uint8_t>(kind);
  if (who.empty()) {
    std::memcpy(ev.who, t_actor, sizeof ev.who);
  } else {
    const std::size_t len = std::min(who.size(), sizeof ev.who - 1);
    std::memcpy(ev.who, who.data(), len);
    ev.who[len] = '\0';
  }
  ring->seq.store(s + 1, std::memory_order_release);
  ring->written.store(ring->written.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
}

bool flight_retract_slow(FlightKind kind, std::uint64_t a) {
  FlightRing* ring = t_ring;
  if (ring == nullptr) return false;
  const std::uint64_t s = ring->seq.load(std::memory_order_relaxed);
  const std::uint64_t cap = std::uint64_t{ring->mask} + 1;
  // Only before the owner's own events first wrap the ring, and never a
  // previous owner's event or one flight_reset discarded.
  if (s <= ring->claimed_at || s - ring->claimed_at > cap ||
      s <= ring->discard.load(std::memory_order_relaxed)) {
    return false;
  }
  const FlightEvent& newest = ring->slots[(s - 1) & ring->mask];
  // Same kind, subject and actor: on a scheduler worker the newest event
  // may be another fiber's.
  if (newest.kind != static_cast<std::uint8_t>(kind) || newest.a != a ||
      std::memcmp(newest.who, t_actor, sizeof newest.who) != 0) {
    return false;
  }
  // In a ring a previous owner wrapped, the slot given back held the
  // oldest event; it leaves the window rather than return as the event
  // just taken back.
  if (s > cap) {
    ring->discard.store(
        std::max(s - cap, ring->discard.load(std::memory_order_relaxed)),
        std::memory_order_relaxed);
  }
  ring->seq.store(s - 1, std::memory_order_release);
  return true;
}

}  // namespace detail

void flight_set_actor(std::string_view name) {
  const std::size_t len = std::min(name.size(), sizeof t_actor - 1);
  std::memcpy(t_actor, name.data(), len);
  t_actor[len] = '\0';
}

void flight_set_node(std::uint16_t tag) { t_node = tag; }

std::uint16_t flight_node() { return t_node; }

void set_flight_level(FlightLevel level) {
  detail::g_flight_level.store(static_cast<std::uint8_t>(level),
                               std::memory_order_relaxed);
}

FlightLevel flight_level() {
  return static_cast<FlightLevel>(
      detail::g_flight_level.load(std::memory_order_relaxed));
}

void flight_reset() {
  const std::size_t n = registry_size();
  for (std::size_t i = 0; i < n; ++i) {
    FlightRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    ring->discard.store(ring->seq.load(std::memory_order_acquire),
                        std::memory_order_relaxed);
  }
}

FlightCounters flight_counters() {
  FlightCounters counters;
  const std::size_t n = registry_size();
  for (std::size_t i = 0; i < n; ++i) {
    FlightRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t seq = ring->seq.load(std::memory_order_acquire);
    const std::uint64_t cap = std::uint64_t{ring->mask} + 1;
    counters.recorded += ring->written.load(std::memory_order_relaxed);
    if (seq > cap) counters.dropped += seq - cap;
  }
  counters.dumps = g_dumps.load(std::memory_order_relaxed);
  return counters;
}

FlightExport flight_export(std::int64_t node_filter) {
  FlightExport exp;
  exp.node = node_filter < 0 ? 0 : static_cast<std::uint32_t>(node_filter);
  exp.export_ns = now_ns();
  const FlightCounters counters = flight_counters();
  exp.recorded = counters.recorded;
  exp.dropped = counters.dropped;
  exp.dumps = counters.dumps;
  const std::size_t n = registry_size();
  for (std::size_t i = 0; i < n; ++i) {
    FlightRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    ring_window(*ring, first, last);
    for (std::uint64_t s = first; s < last; ++s) {
      const FlightEvent ev = ring->slots[s & ring->mask];
      if (node_filter >= 0 &&
          ev.node != static_cast<std::uint16_t>(node_filter)) {
        continue;
      }
      exp.events.push_back(ev);
    }
  }
  std::stable_sort(exp.events.begin(), exp.events.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.ts_ns < y.ts_ns;
                   });
  return exp;
}

std::string flight_dump(std::string_view reason) {
  const FlightExport exp = flight_export();
  std::string name = "dpn-flight-";
  for (const char c : reason) {
    name += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
             c == '_')
                ? c
                : '-';
  }
  if (reason.empty()) name += "dump";
  name += '-' + std::to_string(static_cast<unsigned>(::getpid())) + ".txt";
  const char* dir = std::getenv("DPN_FLIGHT_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0') ? dir : ".";
  path += '/' + name;
  const std::string report = flight_report(exp.events, reason);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return "";
  std::fwrite(report.data(), 1, report.size(), file);
  std::fclose(file);
  g_dumps.fetch_add(1, std::memory_order_relaxed);
  flight_record_named(FlightKind::kDump, reason);
  return path;
}

std::size_t flight_write_raw(int fd) {
  // Two passes: size the header, then stream events.  Everything here is
  // async-signal-safe (atomic loads, stack buffers, write(2)); racing
  // writers can tear an in-flight slot, which decodes as one garbled
  // event, never a fault.
  const std::size_t n = registry_size();
  std::uint64_t firsts[kMaxRings];
  std::uint64_t lasts[kMaxRings];
  std::uint64_t total = 0;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    FlightRing* ring = g_rings[i].load(std::memory_order_acquire);
    firsts[i] = lasts[i] = 0;
    if (ring == nullptr) continue;
    ring_window(*ring, firsts[i], lasts[i]);
    total += lasts[i] - firsts[i];
    const std::uint64_t seq = lasts[i];
    const std::uint64_t cap = std::uint64_t{ring->mask} + 1;
    recorded += seq;
    if (seq > cap) dropped += seq - cap;
  }
  std::uint8_t header[kHeaderWire];
  put_u32(header, 0);
  put_u64(header + 4, 0);  // export_ns: no clock in the crash path
  put_u64(header + 12, recorded);
  put_u64(header + 20, dropped);
  put_u64(header + 28, g_dumps.load(std::memory_order_relaxed));
  put_u32(header + 36, static_cast<std::uint32_t>(total));
  std::size_t written = 0;
  const auto emit = [&](const std::uint8_t* data, std::size_t size) {
    while (size > 0) {
      const ::ssize_t w = ::write(fd, data, size);
      if (w <= 0) return false;
      written += static_cast<std::size_t>(w);
      data += w;
      size -= static_cast<std::size_t>(w);
    }
    return true;
  };
  if (!emit(header, sizeof header)) return written;
  std::uint8_t buf[kEventWire * 32];
  for (std::size_t i = 0; i < n; ++i) {
    FlightRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    std::size_t fill = 0;
    for (std::uint64_t s = firsts[i]; s < lasts[i]; ++s) {
      encode_event(buf + fill, ring->slots[s & ring->mask]);
      fill += kEventWire;
      if (fill == sizeof buf) {
        if (!emit(buf, fill)) return written;
        fill = 0;
      }
    }
    if (fill > 0 && !emit(buf, fill)) return written;
  }
  return written;
}

void flight_install_crash_handler() {
  static std::once_flag once;
  std::call_once(once, [] {
    if (const char* env = std::getenv("DPN_FLIGHT_CRASH");
        env != nullptr && env[0] == '0') {
      return;
    }
    if (const char* dir = std::getenv("DPN_FLIGHT_DIR");
        dir != nullptr && dir[0] != '\0') {
      const std::size_t len = std::min(std::strlen(dir),
                                       sizeof g_crash_dir - 1);
      std::memcpy(g_crash_dir, dir, len);
      g_crash_dir[len] = '\0';
    }
    struct sigaction sa{};
    sa.sa_handler = flight_crash_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESETHAND;
    // A timeout's SIGTERM (ctest, a supervisor) and a SIGQUIT leave a
    // post-mortem too, not only a crash.  A handler the program installed
    // itself stays.
    for (const int sig : {SIGSEGV, SIGABRT, SIGTERM, SIGQUIT}) {
      struct sigaction current{};
      ::sigaction(sig, nullptr, &current);
      if ((current.sa_flags & SA_SIGINFO) == 0 &&
          current.sa_handler == SIG_DFL) {
        ::sigaction(sig, &sa, nullptr);
      }
    }
  });
}

#else  // DPN_FLIGHT == 0: recording compiled out, rendering kept.

void set_flight_level(FlightLevel) {}
FlightLevel flight_level() { return FlightLevel::kOff; }
void flight_reset() {}
void flight_set_node(std::uint16_t) {}
std::uint16_t flight_node() { return 0; }
FlightCounters flight_counters() { return {}; }
FlightExport flight_export(std::int64_t node_filter) {
  FlightExport exp;
  exp.node = node_filter < 0 ? 0 : static_cast<std::uint32_t>(node_filter);
  return exp;
}
std::string flight_dump(std::string_view) { return ""; }
std::size_t flight_write_raw(int) { return 0; }
void flight_install_crash_handler() {}

#endif  // DPN_FLIGHT

}  // namespace dpn::obs
