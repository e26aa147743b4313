#include "io/pipe.hpp"

#include <algorithm>
#include <limits>

namespace dpn::io {

// No storage yet: the ring allocates at the first byte, so a pipe that
// never carries bytes (the idle byte plane under a live typed ring) costs
// nothing.
Pipe::Pipe(std::size_t capacity) : core_(std::max<std::size_t>(capacity, 1)) {}

std::size_t Pipe::read_some(MutableByteSpan out) {
  if (out.empty()) return 0;
  ByteRing& ring = core_.ring;
  for (;;) {
    const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
    if ((h & Core::kStop) == 0) {
      // A stale lower bound of tail, so reading below it is safe; reload
      // only when it falls short of the request (SPSC anti-ping-pong).
      std::uint64_t& t = ring.tail_seen;
      if (t < h + out.size()) {
        t = Core::index(ring.tail.load(std::memory_order_acquire));
      }
      const std::uint64_t n = std::min<std::uint64_t>(out.size(), t - h);
      if (n > 0 && core_.claim(h, n)) {
        ring.copy_out(h, out.data(), n);
        if (h + n == t) ring.drained();
        core_.claimed(h + n);
        return static_cast<std::size_t>(n);
      }
    }
    const std::uint8_t flags = core_.consumer_edge(&read_block_hist_);
    if ((flags & Core::kAborted) != 0) {
      throw Interrupted{"pipe aborted during read"};
    }
    if ((flags & Core::kReadClosed) != 0) {
      throw IoError{"read from closed pipe"};
    }
    if (flags != 0) return 0;  // write end closed and drained
  }
}

void Pipe::write_vectored(ByteSpan a, ByteSpan b) {
  ByteRing& ring = core_.ring;
  std::size_t written = 0;  // published by this call
  while (!a.empty() || !b.empty()) {
    const std::uint64_t t = ring.tail.load(std::memory_order_relaxed);
    if ((t & Core::kStop) == 0) {
      // Mirror of tail_seen: a stale head overstates what is in use, so
      // it can only make this write look short of room or a new peak;
      // reload it then.
      const std::uint64_t bound = core_.bound.load(std::memory_order_relaxed);
      const std::uint64_t peak = core_.peak.load(std::memory_order_relaxed);
      std::uint64_t& h = ring.head_seen;
      if (t - h + a.size() + b.size() > std::min(bound, peak)) {
        h = Core::index(ring.head.load(std::memory_order_acquire));
      }
      const std::uint64_t used = t - h;
      if (used < bound) {
        // What the room allows of a, then b, published at once.
        const auto take = static_cast<std::size_t>(
            std::min<std::uint64_t>(a.size() + b.size(), bound - used));
        const ByteSpan first = a.first(std::min(take, a.size()));
        const ByteSpan second = b.first(take - first.size());
        ring.put(t, first);
        ring.put(t + first.size(), second);
        if (core_.publish(t, take)) {
          if (used + take > peak) {
            core_.peak.store(used + take, std::memory_order_relaxed);
          }
          written += take;
          a = a.subspan(first.size());
          b = b.subspan(second.size());
          continue;
        }
        // A cut stopped us before the publish; the edge says which.
      }
    }
    const std::uint8_t flags =
        core_.producer_edge(1, &write_block_hist_, [] { return false; });
    if ((flags & Core::kAborted) != 0) {
      throw Interrupted{"pipe aborted during write"};
    }
    // Before kReadClosed: the reader of a stopped segment may close it
    // after reading its end, and the writer must still learn of the stop.
    if ((flags & (Core::kWriteClosed | Core::kWriteStopped)) != 0) {
      throw WriteStopped{written, "write to closed pipe"};
    }
    if (flags != 0) throw ChannelClosed{};
  }
}

void Pipe::stop_write() {
  core_.cut([&] {
    core_.stop_producer();
    core_.flags.fetch_or(Core::kWriteStopped, std::memory_order_release);
  });
}

void Pipe::set_unbounded() {
  core_.cut([&] {
    core_.bound.store(std::numeric_limits<std::uint64_t>::max(),
                      std::memory_order_relaxed);
  });
}

ByteVector Pipe::steal_buffer() {
  ByteVector out;
  core_.cut([&] {
    const std::uint64_t h = core_.stop_consumer();
    const std::uint64_t t =
        Core::index(core_.ring.tail.load(std::memory_order_acquire));
    out.resize(static_cast<std::size_t>(t - h));
    core_.ring.copy_out(h, out.data(), t - h);
    if (t != h) core_.ring.drained();
    core_.resume_consumer(t);
  });
  return out;
}

Pipe::Stats Pipe::stats() const {
  std::scoped_lock lock{core_.mutex};
  Stats s{core_.stats()};
  s.occupancy_hwm = static_cast<std::size_t>(
      core_.peak.load(std::memory_order_relaxed));
  s.read_block = read_block_hist_.snapshot();
  s.write_block = write_block_hist_.snapshot();
  return s;
}

}  // namespace dpn::io
