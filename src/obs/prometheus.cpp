#include "obs/prometheus.hpp"

#include <cinttypes>
#include <cstdio>

namespace dpn::obs {
namespace {

void append_line(std::string& out, const char* name, std::uint64_t value) {
  char line[160];
  std::snprintf(line, sizeof line, "%s %" PRIu64 "\n", name, value);
  out += line;
}

void append_help(std::string& out, const char* name, const char* type,
                 const char* help) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

std::string escape_label(const std::string& value) {
  std::string escaped;
  escaped.reserve(value.size());
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      escaped += '\\';
      escaped += c;
    } else if (c == '\n') {
      escaped += "\\n";
    } else {
      escaped += c;
    }
  }
  return escaped;
}

/// One histogram in native Prometheus form: cumulative `le` buckets in
/// seconds, then `_sum` and `_count`.  `labels` is either empty or a
/// pre-rendered `{key="value"}` fragment without the closing brace, so
/// the `le` label can be appended.
void append_histogram(std::string& out, const char* name,
                      const std::string& labels, const HistogramSnapshot& h) {
  char line[224];
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    cumulative += h.counts[i];
    if (h.counts[i] == 0 && i + 1 != HistogramSnapshot::kBuckets) {
      continue;  // sparse output; cumulative buckets stay correct
    }
    const double le =
        static_cast<double>(HistogramSnapshot::bucket_bound_ns(i)) / 1e9;
    if (i + 1 == HistogramSnapshot::kBuckets) {
      std::snprintf(line, sizeof line, "%s_bucket%s%sle=\"+Inf\"} %" PRIu64
                    "\n",
                    name, labels.empty() ? "{" : labels.c_str(),
                    labels.empty() ? "" : ",", h.count);
    } else {
      std::snprintf(line, sizeof line, "%s_bucket%s%sle=\"%g\"} %" PRIu64
                    "\n",
                    name, labels.empty() ? "{" : labels.c_str(),
                    labels.empty() ? "" : ",", le, cumulative);
    }
    out += line;
  }
  const std::string close = labels.empty() ? "" : labels + "}";
  std::snprintf(line, sizeof line, "%s_sum%s %.9f\n", name, close.c_str(),
                static_cast<double>(h.sum_ns) / 1e9);
  out += line;
  std::snprintf(line, sizeof line, "%s_count%s %" PRIu64 "\n", name,
                close.c_str(), h.count);
  out += line;
}

}  // namespace

std::string render_prometheus(const NetworkSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);

  append_help(out, "dpn_processes_live", "gauge",
              "Unfinished processes at snapshot time");
  append_line(out, "dpn_processes_live", snapshot.live);
  append_help(out, "dpn_growth_events_total", "counter",
              "Deadlock-monitor channel growths (Parks' algorithm)");
  append_line(out, "dpn_growth_events_total", snapshot.growth_events);
  append_help(out, "dpn_remote_bytes_sent_total", "counter",
              "Bytes sent over remote channels");
  append_line(out, "dpn_remote_bytes_sent_total", snapshot.remote_bytes_sent);
  append_help(out, "dpn_remote_bytes_received_total", "counter",
              "Bytes received over remote channels");
  append_line(out, "dpn_remote_bytes_received_total",
              snapshot.remote_bytes_received);

  append_help(out, "dpn_connect_retries_total", "counter",
              "Connect attempts retried after failure");
  append_line(out, "dpn_connect_retries_total", snapshot.connect_retries);
  append_help(out, "dpn_connect_failures_total", "counter",
              "Connects that exhausted their retry budget");
  append_line(out, "dpn_connect_failures_total", snapshot.connect_failures);
  append_help(out, "dpn_tasks_reissued_total", "counter",
              "Tasks re-dispatched after worker loss");
  append_line(out, "dpn_tasks_reissued_total", snapshot.tasks_reissued);
  append_help(out, "dpn_workers_lost_total", "counter",
              "Workers declared lost");
  append_line(out, "dpn_workers_lost_total", snapshot.workers_lost);
  append_help(out, "dpn_lease_expiries_total", "counter",
              "Synchronous calls abandoned after lease expiry");
  append_line(out, "dpn_lease_expiries_total", snapshot.lease_expiries);
  append_help(out, "dpn_registry_evictions_total", "counter",
              "Registry entries evicted after NACKs");
  append_line(out, "dpn_registry_evictions_total",
              snapshot.registry_evictions);
  append_help(out, "dpn_faults_injected_total", "counter",
              "Faults injected by the test harness");
  append_line(out, "dpn_faults_injected_total", snapshot.faults_injected);

  // Flight-recorder plane, at every level.
  append_help(out, "dpn_flight_events_recorded_total", "counter",
              "Flight-recorder events recorded since process start");
  append_line(out, "dpn_flight_events_recorded_total",
              snapshot.flight_recorded);
  append_help(out, "dpn_flight_events_dropped_total", "counter",
              "Flight-recorder events overwritten by ring wraparound");
  append_line(out, "dpn_flight_events_dropped_total",
              snapshot.flight_dropped);
  append_help(out, "dpn_flight_dumps_total", "counter",
              "Post-mortem flight dumps written");
  append_line(out, "dpn_flight_dumps_total", snapshot.flight_dumps);

  // Mux transport plane.
  append_help(out, "dpn_mux_connections_total", "counter",
              "Mux transport connections established");
  append_line(out, "dpn_mux_connections_total", snapshot.mux_connections);
  append_help(out, "dpn_mux_streams_active", "gauge",
              "Mux streams currently open");
  append_line(out, "dpn_mux_streams_active", snapshot.mux_streams_active);
  append_help(out, "dpn_mux_streams_total", "counter",
              "Mux streams ever opened");
  append_line(out, "dpn_mux_streams_total", snapshot.mux_streams_total);
  append_help(out, "dpn_mux_credit_stalls_total", "counter",
              "Writes that stalled on mux flow-control credit");
  append_line(out, "dpn_mux_credit_stalls_total", snapshot.mux_credit_stalls);
  append_help(out, "dpn_mux_credit_stall_seconds_total", "counter",
              "Total time writers spent stalled on mux credit");
  {
    char stall[96];
    std::snprintf(stall, sizeof stall,
                  "dpn_mux_credit_stall_seconds_total %.9f\n",
                  static_cast<double>(snapshot.mux_credit_stall_ns) / 1e9);
    out += stall;
  }

  append_help(out, "dpn_task_rtt_seconds", "histogram",
              "Task dispatch-to-result round trip");
  append_histogram(out, "dpn_task_rtt_seconds", "", snapshot.task_rtt);
  append_help(out, "dpn_connect_seconds", "histogram",
              "Connect latency including retries");
  append_histogram(out, "dpn_connect_seconds", "", snapshot.connect_latency);
  append_help(out, "dpn_sched_runq_wait_seconds", "histogram",
              "Time fibers sat runnable before a worker dispatched them");
  append_histogram(out, "dpn_sched_runq_wait_seconds", "",
                   snapshot.sched_runq);

  append_help(out, "dpn_channel_buffered_bytes", "gauge",
              "Bytes currently buffered in a channel's pipe");
  append_help(out, "dpn_channel_bytes_written_total", "counter",
              "Bytes written into a channel");
  append_help(out, "dpn_channel_bytes_read_total", "counter",
              "Bytes read out of a channel");
  append_help(out, "dpn_channel_read_block_seconds", "histogram",
              "Per-wait reader blocking time");
  append_help(out, "dpn_channel_write_block_seconds", "histogram",
              "Per-wait writer blocking time");
  append_help(out, "dpn_channel_typed_pushed_total", "counter",
              "Values that entered a typed channel's zero-copy ring");
  append_help(out, "dpn_channel_typed_popped_total", "counter",
              "Values that left a typed channel's zero-copy ring");
  append_help(out, "dpn_channel_typed_buffered", "gauge",
              "Values currently in a typed channel's ring");
  char line[224];
  for (const ChannelSnapshot& channel : snapshot.channels) {
    const std::string label =
        channel.label.empty() ? ("#" + std::to_string(channel.id))
                              : channel.label;
    const std::string tag = "{channel=\"" + escape_label(label) + "\"";
    std::snprintf(line, sizeof line,
                  "dpn_channel_buffered_bytes%s} %" PRIu64 "\n", tag.c_str(),
                  channel.buffered);
    out += line;
    std::snprintf(line, sizeof line,
                  "dpn_channel_bytes_written_total%s} %" PRIu64 "\n",
                  tag.c_str(), channel.bytes_written);
    out += line;
    std::snprintf(line, sizeof line,
                  "dpn_channel_bytes_read_total%s} %" PRIu64 "\n", tag.c_str(),
                  channel.bytes_read);
    out += line;
    if (channel.read_block.count > 0) {
      append_histogram(out, "dpn_channel_read_block_seconds", tag,
                       channel.read_block);
    }
    if (channel.write_block.count > 0) {
      append_histogram(out, "dpn_channel_write_block_seconds", tag,
                       channel.write_block);
    }
    if (channel.has_typed) {
      // Demoted rings keep their lifetime counters; the gauge goes to the
      // byte plane, which dpn_channel_buffered_bytes above already covers.
      std::snprintf(line, sizeof line,
                    "dpn_channel_typed_pushed_total%s} %" PRIu64 "\n",
                    tag.c_str(), channel.typed_pushed);
      out += line;
      std::snprintf(line, sizeof line,
                    "dpn_channel_typed_popped_total%s} %" PRIu64 "\n",
                    tag.c_str(), channel.typed_popped);
      out += line;
      if (!channel.typed_demoted) {
        std::snprintf(line, sizeof line,
                      "dpn_channel_typed_buffered%s} %" PRIu64 "\n",
                      tag.c_str(), channel.typed_buffered);
        out += line;
      }
    }
  }
  return out;
}

}  // namespace dpn::obs
