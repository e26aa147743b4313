#include "obs/flight.hpp"

#include <fcntl.h>
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
  }
  return "unknown";
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
    std::uint64_t ch = 0;  // the rendezvous token when `rendezvous`
    std::uint64_t buffered = 0;
    bool rendezvous = false;
  };
  std::map<std::uint64_t, std::string> labels;
  std::map<std::uint64_t, std::set<std::string>> readers;
  std::map<std::uint64_t, std::set<std::string>> writers;
  std::map<std::string, Wait> blocked;
  for (const FlightEvent& ev : events) {
    const auto kind = static_cast<FlightKind>(ev.kind);
    if (!is_channel_kind(kind)) continue;
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
        blocked[who] = Wait{false, ev.a, 0, true};
        break;
      case FlightKind::kChanUnblockRead:
      case FlightKind::kChanUnblockWrite:
      case FlightKind::kRendezvousResume:
        blocked.erase(who);
        break;
      default:
        break;
    }
  }

  const auto describe = [&](const std::string& who) {
    const Wait& w = blocked.at(who);
    std::string line = who;
    if (w.rendezvous) {
      return line + " blocked awaiting its remote peer (rendezvous token " +
             std::to_string(w.ch) + ")";
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
    if (!wait.rendezvous) {
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
    if (w.rendezvous) return next;  // its peer is on another host
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

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One ring per recording thread.  Created on the thread's first event,
/// registered in a lock-free fixed array, and deliberately never freed:
/// a post-mortem dump must be able to read the rings of threads that
/// have already exited (and a signal handler must be able to walk the
/// registry without taking any lock).
struct FlightRing {
  std::atomic<std::uint64_t> seq{0};      // next slot to write
  std::atomic<std::uint64_t> discard{0};  // events dropped by flight_reset
  // Events ever written: seq, plus those flight_retract took back.
  std::atomic<std::uint64_t> written{0};
  std::uint32_t tid = 0;
  std::uint32_t mask = 0;
  FlightEvent* slots = nullptr;
};

constexpr std::size_t kMaxRings = 256;
std::atomic<FlightRing*> g_rings[kMaxRings];
std::atomic<std::size_t> g_ring_count{0};
std::atomic<std::uint64_t> g_dumps{0};

/// Crash-dump directory, captured at handler-install time (getenv is not
/// async-signal-safe).
char g_crash_dir[192] = ".";

bool initial_flight_on() {
  const char* env = std::getenv("DPN_FLIGHT");
  return !(env != nullptr && env[0] == '0');
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
thread_local bool t_ring_failed = false;
thread_local char t_actor[16] = {};
thread_local std::uint16_t t_node = 0;

FlightRing* ring_for_thread() {
  if (t_ring != nullptr) return t_ring;
  if (t_ring_failed) return nullptr;
  const std::size_t index =
      g_ring_count.fetch_add(1, std::memory_order_relaxed);
  if (index >= kMaxRings) {
    // Registry full (256 recording threads): this thread stops
    // recording rather than blocking or reusing someone's ring.
    t_ring_failed = true;
    return nullptr;
  }
  auto* ring = new FlightRing;
  ring->tid = thread_tag();
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
  // hand.  The raw binary rings go to dpn-flight-crash-<pid>.bin; decode
  // with FlightExport::decode (tools, tests) or `dpn_top --flight`.
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

std::atomic<bool> g_flight_on{initial_flight_on()};

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
  // Only before the ring first wraps: afterwards the slot being given
  // back would re-enter the window as its oldest event.
  if (s == 0 || s > std::uint64_t{ring->mask} + 1 ||
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

void set_flight_enabled(bool on) {
  detail::g_flight_on.store(on, std::memory_order_relaxed);
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
    ::sigaction(SIGSEGV, &sa, nullptr);
    ::sigaction(SIGABRT, &sa, nullptr);
  });
}

#else  // DPN_FLIGHT == 0: recording compiled out, rendering kept.

void set_flight_enabled(bool) {}
void flight_reset() {}
void flight_set_node(std::uint16_t) {}
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
