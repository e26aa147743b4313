#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "io/data.hpp"
#include "io/memory.hpp"
#include "obs/flight.hpp"
#include "support/bytes.hpp"

namespace dpn::obs {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t thread_tag() {
  // A stable small tag per thread; the hash is computed once per thread.
  static thread_local const std::uint32_t tag = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  return tag;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

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

/// Span/trace ids: one process-wide counter, seeded from the wall clock
/// so two real hosts allocating independently are unlikely to collide
/// (collision cost: a spurious flow arrow in a merged trace, nothing
/// functional).  Never returns 0 -- 0 means "no context".
std::atomic<std::uint64_t>& id_counter() {
  static std::atomic<std::uint64_t> counter{
      (now_ns() << 16) | 1};
  return counter;
}

thread_local TraceContext t_context;
thread_local std::uint32_t t_node_tag = 0;

void append_event_fields(std::string& out, const TraceEvent& event,
                         const char* ph, std::uint32_t pid) {
  out += "{\"name\":\"";
  out += to_string(event.kind);
  out += "\",\"ph\":\"";
  out += ph;
  out += '"';
  if (ph[0] == 'i') out += ",\"s\":\"t\"";
  out += ",\"pid\":";
  out += std::to_string(pid);
  out += ",\"tid\":";
  out += std::to_string(event.tid);
  out += ",\"ts\":";
  // Chrome expects microseconds; keep sub-microsecond as a fraction.
  out += std::to_string(event.ts_ns / 1000);
  out += '.';
  out += std::to_string(event.ts_ns % 1000);
}

}  // namespace

const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kChannelWrite: return "channel.write";
    case TraceKind::kChannelRead: return "channel.read";
    case TraceKind::kChannelFlush: return "channel.flush";
    case TraceKind::kChannelClose: return "channel.close";
    case TraceKind::kShip: return "dist.ship";
    case TraceKind::kRedirect: return "dist.redirect";
    case TraceKind::kMigrate: return "dist.migrate";
    case TraceKind::kMonitorGrow: return "monitor.grow";
    case TraceKind::kMonitorDeadlock: return "monitor.deadlock";
    case TraceKind::kTaskDispatch: return "par.dispatch";
    case TraceKind::kTaskComplete: return "par.complete";
    case TraceKind::kProcessStart: return "process.start";
    case TraceKind::kProcessStop: return "process.stop";
    case TraceKind::kNetSend: return "net.send";
    case TraceKind::kNetRecv: return "net.recv";
    case TraceKind::kShipSend: return "ship.send";
    case TraceKind::kShipRecv: return "ship.recv";
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
  // Spans are minted once per traced frame on the channel hot path, so
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

void set_node_tag(std::uint32_t tag) {
  t_node_tag = tag;
  // The flight recorder keeps its own thread-local tag (dpn_support
  // cannot reach up into obs); mirror it here so both planes agree on
  // which simulated host produced an event.
  flight_set_node(static_cast<std::uint16_t>(tag));
}

std::uint32_t node_tag() { return t_node_tag; }

namespace detail {
std::atomic<bool> g_trace_on{false};
}  // namespace detail

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(std::size_t capacity) {
  disable();
  const std::size_t size = round_up_pow2(std::max<std::size_t>(capacity, 2));
  ring_.assign(size, TraceEvent{});
  mask_ = size - 1;
  // Fold the finished epoch into the lifetime total before next_ resets:
  // total_recorded() stays monotonic across enable/disable cycles, which
  // is what lets EXPERIMENTS.md overhead claims be checked from a
  // snapshot alone.
  lifetime_base_.fetch_add(next_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  next_.store(0, std::memory_order_relaxed);
  epoch_ns_ = now_ns();
  enabled_.store(true, std::memory_order_release);
  detail::g_trace_on.store(true, std::memory_order_release);
}

void Tracer::disable() {
  detail::g_trace_on.store(false, std::memory_order_release);
  enabled_.store(false, std::memory_order_release);
}

void Tracer::record(TraceKind kind, std::string_view name, std::uint64_t arg0,
                    std::uint64_t arg1) {
  if (!enabled_.load(std::memory_order_acquire)) return;
  const std::uint64_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  TraceEvent& event = ring_[slot & mask_];
  event.ts_ns = now_ns() - epoch_ns_;
  event.tid = thread_tag();
  event.node = t_node_tag;
  event.kind = kind;
  const std::size_t n = std::min(name.size(), sizeof(event.name) - 1);
  std::memcpy(event.name, name.data(), n);
  event.name[n] = '\0';
  event.arg0 = arg0;
  event.arg1 = arg1;
}

std::vector<TraceEvent> Tracer::drain() const {
  std::vector<TraceEvent> out;
  if (ring_.empty()) return out;
  const std::uint64_t total = next_.load(std::memory_order_acquire);
  const std::uint64_t kept = std::min<std::uint64_t>(total, ring_.size());
  out.reserve(static_cast<std::size_t>(kept));
  // Oldest surviving slot first: when the ring wrapped, that is the slot
  // the *next* record would overwrite.
  const std::uint64_t first = total - kept;
  for (std::uint64_t i = first; i < total; ++i) {
    out.push_back(ring_[i & mask_]);
  }
  return out;
}

TraceExport Tracer::export_events(std::int64_t node_filter) const {
  TraceExport exp;
  exp.node = node_filter < 0 ? 0 : static_cast<std::uint32_t>(node_filter);
  exp.epoch_ns = epoch_ns_;
  exp.recorded = recorded();
  exp.dropped = dropped();
  for (TraceEvent& event : drain()) {
    if (node_filter >= 0 &&
        event.node != static_cast<std::uint32_t>(node_filter)) {
      continue;
    }
    exp.events.push_back(event);
  }
  return exp;
}

ByteVector TraceExport::encode() const {
  io::MemoryOutputStream sink;
  io::DataOutputStream out{sink};
  out.write_u32(node);
  out.write_u64(epoch_ns);
  out.write_u64(recorded);
  out.write_u64(dropped);
  out.write_varint(events.size());
  for (const TraceEvent& event : events) {
    out.write_u64(event.ts_ns);
    out.write_u32(event.tid);
    out.write_u32(event.node);
    out.write_u8(static_cast<std::uint8_t>(event.kind));
    out.write_string(event.name);
    out.write_u64(event.arg0);
    out.write_u64(event.arg1);
  }
  return sink.take();
}

TraceExport TraceExport::decode(ByteSpan bytes) {
  io::MemoryInputStream source{ByteVector{bytes.begin(), bytes.end()}};
  io::DataInputStream in{source};
  TraceExport exp;
  exp.node = in.read_u32();
  exp.epoch_ns = in.read_u64();
  exp.recorded = in.read_u64();
  exp.dropped = in.read_u64();
  const std::uint64_t n = in.read_varint();
  exp.events.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    TraceEvent event;
    event.ts_ns = in.read_u64();
    event.tid = in.read_u32();
    event.node = in.read_u32();
    event.kind = static_cast<TraceKind>(in.read_u8());
    const std::string name = in.read_string();
    const std::size_t len = std::min(name.size(), sizeof(event.name) - 1);
    std::memcpy(event.name, name.data(), len);
    event.name[len] = '\0';
    event.arg0 = in.read_u64();
    event.arg1 = in.read_u64();
    exp.events.push_back(event);
  }
  return exp;
}

std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              std::uint64_t recorded, std::uint64_t dropped) {
  std::string out = "{\"traceEvents\":[";
  bool comma = false;
  const auto emit = [&](const std::string& piece) {
    if (comma) out += ',';
    comma = true;
    out += piece;
  };
  // One Chrome "process" row per node tag, labelled so a merged fleet
  // trace reads host-by-host.
  std::vector<std::uint32_t> nodes;
  for (const TraceEvent& event : events) {
    if (std::find(nodes.begin(), nodes.end(), event.node) == nodes.end()) {
      nodes.push_back(event.node);
    }
  }
  std::sort(nodes.begin(), nodes.end());
  for (const std::uint32_t node : nodes) {
    std::string meta = "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    meta += std::to_string(node);
    meta += ",\"args\":{\"name\":\"";
    meta += node == 0 ? "dpn host 0 (local)" : "dpn host " + std::to_string(node);
    meta += "\"}}";
    emit(meta);
  }
  for (const TraceEvent& event : events) {
    std::string piece;
    append_event_fields(piece, event, "i", event.node);
    piece += ",\"args\":{\"label\":\"";
    append_json_escaped(piece, event.name, sizeof(event.name));
    piece += "\",\"arg0\":";
    piece += std::to_string(event.arg0);
    piece += ",\"arg1\":";
    piece += std::to_string(event.arg1);
    piece += "}}";
    emit(piece);
    // Causal kinds additionally carry a flow arrow: the span id stamped
    // on the wire is the arrow id, so a kNetSend on one pid and the
    // kNetRecv that consumed the same frame on another pid are joined.
    if (is_flow_start(event.kind) || is_flow_finish(event.kind)) {
      // Chrome binds flow begin/finish by category + name + id, so both
      // ends use the same name; the span id from the wire is the id.
      std::string flow = "{\"name\":\"dpn.flow\",\"cat\":\"dpn.flow\",\"ph\":\"";
      flow += is_flow_start(event.kind) ? 's' : 'f';
      flow += '"';
      if (is_flow_finish(event.kind)) flow += ",\"bp\":\"e\"";
      flow += ",\"id\":";
      flow += std::to_string(event.arg0);
      flow += ",\"pid\":";
      flow += std::to_string(event.node);
      flow += ",\"tid\":";
      flow += std::to_string(event.tid);
      flow += ",\"ts\":";
      flow += std::to_string(event.ts_ns / 1000);
      flow += '.';
      flow += std::to_string(event.ts_ns % 1000);
      flow += '}';
      emit(flow);
    }
  }
  out += "],\"metadata\":{\"recorded\":";
  out += std::to_string(recorded);
  out += ",\"dropped\":";
  out += std::to_string(dropped);
  out += "}}";
  return out;
}

std::string Tracer::chrome_trace_json() const {
  return obs::chrome_trace_json(drain(), recorded(), dropped());
}

}  // namespace dpn::obs
