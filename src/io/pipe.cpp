#include "io/pipe.hpp"

#include <algorithm>
#include <limits>
#include <thread>

namespace dpn::io {

// No storage yet: the ring allocates at the first byte, so a pipe that
// never carries bytes (the idle byte plane under a live typed ring) costs
// nothing.
Pipe::Pipe(std::size_t capacity)
    : bound_(std::max<std::size_t>(capacity, 1)),
      capacity_(std::max<std::size_t>(capacity, 1)) {}

std::size_t Pipe::read_some(MutableByteSpan out) {
  if (out.empty()) return 0;
  for (;;) {
    std::uint64_t h = ring_.head.load(std::memory_order_relaxed);
    if ((h & kStop) == 0) {
      // A stale lower bound of tail, so reading below it is safe; reload
      // only when it falls short of the request (SPSC anti-ping-pong).
      std::uint64_t& t = ring_.tail_seen;
      if (t < h + out.size()) {
        t = index(ring_.tail.load(std::memory_order_acquire));
      }
      const std::uint64_t n = std::min<std::uint64_t>(out.size(), t - h);
      if (n > 0 &&
          ring_.head.compare_exchange_strong(h, h + n,
                                             std::memory_order_seq_cst,
                                             std::memory_order_relaxed)) {
        ring_.copy_out(h, out.data(), n);
        if (h + n == t) ring_.drained();
        freed_.store(h + n, std::memory_order_release);
        writers_.wake(mutex_);
        return static_cast<std::size_t>(n);
      }
    }
    if (!read_edge()) return 0;  // write end closed and drained
  }
}

void Pipe::write(ByteSpan data) { write_vectored(data, {}); }

void Pipe::write_vectored(ByteSpan a, ByteSpan b) {
  std::size_t written = 0;  // published by this call
  while (!a.empty() || !b.empty()) {
    const std::uint64_t t = ring_.tail.load(std::memory_order_relaxed);
    if ((t & kStop) == 0) {
      // Mirror of tail_seen: a stale head overstates what is in use, so
      // it can only make this write look short of room or a new peak;
      // reload it then.
      const std::uint64_t bound = bound_.load(std::memory_order_relaxed);
      const std::uint64_t peak = occupancy_hwm_.load(std::memory_order_relaxed);
      std::uint64_t& h = ring_.head_seen;
      if (t - h + a.size() + b.size() > std::min(bound, peak)) {
        h = index(ring_.head.load(std::memory_order_acquire));
      }
      const std::uint64_t used = t - h;
      if (used < bound) {
        // What the room allows of a, then b, published at once.
        const auto take = static_cast<std::size_t>(
            std::min<std::uint64_t>(a.size() + b.size(), bound - used));
        const ByteSpan first = a.first(std::min(take, a.size()));
        const ByteSpan second = b.first(take - first.size());
        ring_.put(t, first);
        ring_.put(t + first.size(), second);
        std::uint64_t expected = t;
        if (ring_.tail.compare_exchange_strong(expected, t + take,
                                               std::memory_order_seq_cst,
                                               std::memory_order_relaxed)) {
          if (used + take > peak) {
            occupancy_hwm_.store(used + take, std::memory_order_relaxed);
          }
          readers_.wake(mutex_);
          written += take;
          a = a.subspan(first.size());
          b = b.subspan(second.size());
          continue;
        }
        // A cut stopped us before the publish; the edge says which.
      }
    }
    write_edge(written);
  }
}

void Pipe::write_edge(std::size_t written) {
  std::unique_lock lock{mutex_};
  const std::uint8_t flags = flags_.load(std::memory_order_relaxed);
  if ((flags & kReadClosed) != 0) {
    ring_.release();  // the reader is gone for good, and so are we now
  }
  if ((flags & kAborted) != 0) throw Interrupted{"pipe aborted during write"};
  // Before kReadClosed: the reader of a stopped segment may close it
  // after reading its end, and the writer must still learn of the stop.
  if ((flags & (kWriteClosed | kWriteStopped)) != 0) {
    throw WriteStopped{written, "write to closed pipe"};
  }
  if ((flags & kReadClosed) != 0) throw ChannelClosed{};
  const auto must_wait = [&] {
    return index(ring_.tail.load(std::memory_order_seq_cst)) -
               index(ring_.head.load(std::memory_order_seq_cst)) >=
           bound_.load(std::memory_order_relaxed);
  };
  const std::uint64_t used =
      index(ring_.tail.load(std::memory_order_relaxed)) -
      index(ring_.head.load(std::memory_order_relaxed));
  writers_.park(lock, must_wait,
                sched::WaitTag::writing(flight_id_, used, &write_block_hist_));
}

bool Pipe::read_edge() {
  std::unique_lock lock{mutex_};
  const std::uint8_t flags = flags_.load(std::memory_order_relaxed);
  if ((flags & kAborted) != 0) throw Interrupted{"pipe aborted during read"};
  if ((flags & kReadClosed) != 0) throw IoError{"read from closed pipe"};
  // Read after the flags, under mutex_: with kWriteClosed set this is the
  // final tail, so bytes published just before the close are read, not
  // dropped.
  const auto must_wait = [&] {
    return index(ring_.tail.load(std::memory_order_seq_cst)) ==
           index(ring_.head.load(std::memory_order_seq_cst));
  };
  if (!must_wait()) return true;
  if ((flags & kWriteClosed) != 0) return false;
  readers_.park(lock, must_wait,
                sched::WaitTag::reading(flight_id_, 0, &read_block_hist_));
  return true;
}

std::uint64_t Pipe::stop_writer() {
  return index(ring_.tail.fetch_or(kStop, std::memory_order_seq_cst));
}

std::uint64_t Pipe::stop_reader() {
  const std::uint64_t h =
      index(ring_.head.fetch_or(kStop, std::memory_order_seq_cst));
  while (freed_.load(std::memory_order_acquire) != h) {
    std::this_thread::yield();
  }
  return h;
}

template <typename F>
void Pipe::cut(F&& f) {
  std::scoped_lock lock{mutex_};
  try {
    f();
  } catch (...) {
    readers_.wake_locked();
    writers_.wake_locked();
    throw;
  }
  readers_.wake_locked();
  writers_.wake_locked();
}

void Pipe::close_write() {
  cut([&] {
    stop_writer();
    flags_.fetch_or(kWriteClosed, std::memory_order_release);
  });
}

void Pipe::stop_write() {
  cut([&] {
    stop_writer();
    flags_.fetch_or(kWriteStopped, std::memory_order_release);
  });
}

void Pipe::close_read() {
  cut([&] {
    const std::uint64_t t = stop_writer();
    stop_reader();
    // Data still buffered is discarded: the reader is gone.  The pipe can
    // never carry bytes again, and a shipped endpoint's steal_buffer
    // must deterministically find it empty.
    ring_.head.store(t | kStop, std::memory_order_release);
    freed_.store(t, std::memory_order_release);
    flags_.fetch_or(kReadClosed, std::memory_order_release);
  });
}

void Pipe::abort() {
  cut([&] {
    stop_writer();
    ring_.head.fetch_or(kStop, std::memory_order_seq_cst);
    flags_.fetch_or(kAborted, std::memory_order_release);
  });
}

void Pipe::grow(std::size_t new_capacity) {
  cut([&] {
    if (new_capacity <= capacity_) return;
    capacity_ = new_capacity;
    if (bound_.load(std::memory_order_relaxed) < new_capacity) {
      bound_.store(new_capacity, std::memory_order_relaxed);
    }
  });
}

void Pipe::set_unbounded() {
  cut([&] {
    bound_.store(std::numeric_limits<std::uint64_t>::max(),
                 std::memory_order_relaxed);
  });
}

ByteVector Pipe::steal_buffer() {
  ByteVector out;
  cut([&] {
    const std::uint64_t h = stop_reader();
    const std::uint64_t t = index(ring_.tail.load(std::memory_order_acquire));
    out.resize(static_cast<std::size_t>(t - h));
    ring_.copy_out(h, out.data(), t - h);
    if (t != h) ring_.drained();
    freed_.store(t, std::memory_order_release);
    // Reopens the reader, unless a flag stopped it for good.
    const bool stopped = (flags_.load(std::memory_order_relaxed) &
                          (kReadClosed | kAborted)) != 0;
    ring_.head.store(stopped ? t | kStop : t, std::memory_order_release);
  });
  return out;
}

std::size_t Pipe::capacity() const {
  std::scoped_lock lock{mutex_};
  return capacity_;
}

std::size_t Pipe::size() const {
  const std::uint64_t h = index(ring_.head.load(std::memory_order_acquire));
  return static_cast<std::size_t>(
      index(ring_.tail.load(std::memory_order_acquire)) - h);
}

bool Pipe::write_closed() const {
  return (flags_.load(std::memory_order_acquire) & kWriteClosed) != 0;
}

bool Pipe::read_closed() const {
  return (flags_.load(std::memory_order_acquire) & kReadClosed) != 0;
}

std::size_t Pipe::blocked_readers() const {
  std::scoped_lock lock{mutex_};
  return readers_.size();
}

std::size_t Pipe::blocked_writers() const {
  std::scoped_lock lock{mutex_};
  return writers_.size();
}

Pipe::Stats Pipe::stats() const {
  std::scoped_lock lock{mutex_};
  Stats s;
  s.size = size();
  s.capacity = capacity_;
  s.occupancy_hwm =
      static_cast<std::size_t>(occupancy_hwm_.load(std::memory_order_relaxed));
  s.read_block = read_block_hist_.snapshot();
  s.write_block = write_block_hist_.snapshot();
  s.blocked_readers = readers_.size();
  s.blocked_writers = writers_.size();
  s.write_closed = write_closed();
  s.read_closed = read_closed();
  return s;
}

}  // namespace dpn::io
