#include "io/pipe.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "obs/flight.hpp"

namespace dpn::io {

// No storage yet: put_locked allocates on the first write and grows it
// geometrically, so a pipe that never carries bytes (the idle byte plane
// under a live typed ring) costs nothing.
Pipe::Pipe(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

void Pipe::notify_readers_locked() {
  // Wakeup elision: the counters are exact under mutex_, so when nobody is
  // waiting the (potentially syscall-priced) notify is skipped entirely,
  // and a single waiter gets notify_one instead of a broadcast.
  if (blocked_readers_ == 0) return;
  // Fiber waiters first: requeueing on the waker's own deque is the M:N
  // fast path (the bytes just written are cache-hot right here).  A
  // popped fiber stays counted in blocked_readers_ until it resumes, so
  // the cv arithmetic below can only over-notify, never lose a waiter
  // (blocked_readers() hides it from the monitor: the pipe is no longer
  // empty).
  std::size_t fibers = 0;
  while (sched::Fiber* fiber = reader_fibers_.pop()) {
    sched::make_runnable(fiber);
    ++fibers;
  }
  const std::size_t cv_waiters = blocked_readers_ - fibers;
  if (cv_waiters == 1) {
    readable_.notify_one();
  } else if (cv_waiters > 1) {
    readable_.notify_all();
  }
}

void Pipe::notify_writers_locked() {
  if (blocked_writers_ == 0) return;
  std::size_t fibers = 0;
  while (sched::Fiber* fiber = writer_fibers_.pop()) {
    sched::make_runnable(fiber);
    ++fibers;
  }
  const std::size_t cv_waiters = blocked_writers_ - fibers;
  if (cv_waiters == 1) {
    writable_.notify_one();
  } else if (cv_waiters > 1) {
    writable_.notify_all();
  }
}

void Pipe::wake_all_fibers_locked() {
  while (sched::Fiber* fiber = reader_fibers_.pop()) {
    sched::make_runnable(fiber);
  }
  while (sched::Fiber* fiber = writer_fibers_.pop()) {
    sched::make_runnable(fiber);
  }
}

std::size_t Pipe::read_some(MutableByteSpan out) {
  if (out.empty()) return 0;
  std::unique_lock lock{mutex_};
  bool parked = false;
  while (count_ == 0 && !write_closed_ && !read_closed_ && !aborted_) {
    ++blocked_readers_;
    // Flight record only at the slow path: an unblocked read stays
    // record-free, so the quiet cost is zero.
    if (!parked) {
      parked = true;
      obs::flight_record(obs::FlightKind::kChanBlockRead, flight_id_, count_);
    }
    // The clock is only consulted when actually parking; unblocked reads
    // never pay for it.
    const auto wait_start = std::chrono::steady_clock::now();
    if (sched::on_fiber()) {
      // Run-to-block: park the fiber, freeing this worker thread for
      // other processes.  One wakeup per suspension; the outer while
      // re-checks the predicate exactly like a cv wait would.
      sched::suspend_current(reader_fibers_, lock);
      lock.lock();
    } else {
      readable_.wait(lock, [&] {
        return count_ > 0 || write_closed_ || read_closed_ || aborted_;
      });
    }
    const auto waited = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wait_start)
            .count());
    blocked_read_ns_ += waited;
    read_block_hist_.record(waited);
    ++reader_wakeups_;
    --blocked_readers_;
  }
  if (parked) {
    obs::flight_record(obs::FlightKind::kChanUnblockRead, flight_id_, count_);
  }
  if (aborted_) throw Interrupted{"pipe aborted during read"};
  if (read_closed_) throw IoError{"read from closed pipe"};
  if (count_ == 0) return 0;  // write end closed and drained
  const std::size_t n = take_locked(out);
  notify_writers_locked();
  return n;
}

void Pipe::write(ByteSpan data) { write_vectored(data, {}); }

void Pipe::write_vectored(ByteSpan a, ByteSpan b) {
  std::unique_lock lock{mutex_};
  bool parked = false;
  for (ByteSpan data : {a, b}) {
    while (!data.empty()) {
      if (aborted_) throw Interrupted{"pipe aborted during write"};
      if (read_closed_) throw ChannelClosed{};
      if (write_closed_) throw IoError{"write to closed pipe"};
      // Room is computed once per loop pass; when the pipe is full we wait
      // (the reader was already woken by the previous pass's notify, so no
      // extra notify is issued before sleeping) and re-enter the loop.
      const std::size_t room = unbounded_ ? data.size() : capacity_ - count_;
      if (room == 0) {
        ++blocked_writers_;
        if (!parked) {
          parked = true;
          obs::flight_record(obs::FlightKind::kChanBlockWrite, flight_id_,
                             count_);
        }
        const auto wait_start = std::chrono::steady_clock::now();
        if (sched::on_fiber()) {
          sched::suspend_current(writer_fibers_, lock);
          lock.lock();
        } else {
          writable_.wait(lock, [&] {
            return read_closed_ || aborted_ || write_closed_ || unbounded_ ||
                   count_ < capacity_;
          });
        }
        const auto waited = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wait_start)
                .count());
        blocked_write_ns_ += waited;
        write_block_hist_.record(waited);
        ++writer_wakeups_;
        --blocked_writers_;
        continue;
      }
      const std::size_t n = std::min(room, data.size());
      put_locked(data.first(n));
      data = data.subspan(n);
      notify_readers_locked();
    }
  }
  if (parked) {
    obs::flight_record(obs::FlightKind::kChanUnblockWrite, flight_id_,
                       count_);
  }
}

void Pipe::close_write() {
  {
    std::scoped_lock lock{mutex_};
    write_closed_ = true;
    wake_all_fibers_locked();
  }
  readable_.notify_all();
  writable_.notify_all();
}

void Pipe::close_read() {
  {
    std::scoped_lock lock{mutex_};
    read_closed_ = true;
    // Data still buffered is discarded: the reader is gone.  The storage is
    // released too -- the pipe can never carry bytes again, and a shipped
    // endpoint's steal_buffer must deterministically find it empty.
    count_ = 0;
    head_ = 0;
    ByteVector{}.swap(buffer_);
    wake_all_fibers_locked();
  }
  readable_.notify_all();
  writable_.notify_all();
}

void Pipe::abort() {
  {
    std::scoped_lock lock{mutex_};
    aborted_ = true;
    wake_all_fibers_locked();
  }
  readable_.notify_all();
  writable_.notify_all();
}

void Pipe::grow(std::size_t new_capacity) {
  std::scoped_lock lock{mutex_};
  if (new_capacity <= capacity_) return;
  capacity_ = new_capacity;
  notify_writers_locked();
}

void Pipe::set_unbounded() {
  std::scoped_lock lock{mutex_};
  unbounded_ = true;
  notify_writers_locked();
}

ByteVector Pipe::steal_buffer() {
  ByteVector out;
  std::scoped_lock lock{mutex_};
  out.resize(count_);
  take_locked({out.data(), out.size()});
  notify_writers_locked();
  return out;
}

std::size_t Pipe::capacity() const {
  std::scoped_lock lock{mutex_};
  return capacity_;
}

std::size_t Pipe::size() const {
  std::scoped_lock lock{mutex_};
  return count_;
}

bool Pipe::write_closed() const {
  std::scoped_lock lock{mutex_};
  return write_closed_;
}

bool Pipe::read_closed() const {
  std::scoped_lock lock{mutex_};
  return read_closed_;
}

std::size_t Pipe::waiting_readers_locked() const {
  const bool open = !write_closed_ && !read_closed_ && !aborted_;
  return count_ == 0 && open ? blocked_readers_ : 0;
}

std::size_t Pipe::waiting_writers_locked() const {
  const bool open = !write_closed_ && !read_closed_ && !aborted_;
  return !unbounded_ && count_ >= capacity_ && open ? blocked_writers_ : 0;
}

std::size_t Pipe::blocked_readers() const {
  std::scoped_lock lock{mutex_};
  return waiting_readers_locked();
}

std::size_t Pipe::blocked_writers() const {
  std::scoped_lock lock{mutex_};
  return waiting_writers_locked();
}

Pipe::Stats Pipe::stats() const {
  std::scoped_lock lock{mutex_};
  Stats s;
  s.size = count_;
  s.capacity = capacity_;
  s.occupancy_hwm = occupancy_hwm_;
  s.blocked_read_ns = blocked_read_ns_;
  s.blocked_write_ns = blocked_write_ns_;
  s.reader_wakeups = reader_wakeups_;
  s.writer_wakeups = writer_wakeups_;
  s.blocked_readers = waiting_readers_locked();
  s.blocked_writers = waiting_writers_locked();
  s.write_closed = write_closed_;
  s.read_closed = read_closed_;
  s.read_block = read_block_hist_.snapshot();
  s.write_block = write_block_hist_.snapshot();
  return s;
}

std::size_t Pipe::take_locked(MutableByteSpan out) {
  const std::size_t n = std::min(out.size(), count_);
  if (n == 0) return 0;  // also guards % by zero once storage is released
  // Bulk ring copy: at most two memcpys, split exactly at the wrap point.
  const std::size_t cap = buffer_.size();
  const std::size_t first = std::min(n, cap - head_);
  std::memcpy(out.data(), buffer_.data() + head_, first);
  if (n > first) std::memcpy(out.data() + first, buffer_.data(), n - first);
  head_ = (head_ + n) % cap;
  count_ -= n;
  if (count_ == 0) head_ = 0;
  return n;
}

void Pipe::put_locked(ByteSpan data) {
  ensure_storage_locked(count_ + data.size());
  // Bulk ring copy, mirror of take_locked: one memcpy up to the wrap point,
  // one for the remainder at offset 0.
  const std::size_t cap = buffer_.size();
  const std::size_t tail = (head_ + count_) % cap;
  const std::size_t first = std::min(data.size(), cap - tail);
  std::memcpy(buffer_.data() + tail, data.data(), first);
  if (data.size() > first) {
    std::memcpy(buffer_.data(), data.data() + first, data.size() - first);
  }
  count_ += data.size();
  if (count_ > occupancy_hwm_) occupancy_hwm_ = count_;
}

void Pipe::ensure_storage_locked(std::size_t needed) {
  if (needed <= buffer_.size()) return;
  std::size_t new_size = std::max<std::size_t>(buffer_.size() * 2, 16);
  while (new_size < needed) new_size *= 2;
  ByteVector fresh(new_size);
  // Linearize existing contents at offset 0.
  const std::size_t cap = buffer_.size();
  if (count_ > 0) {
    const std::size_t first = std::min(count_, cap - head_);
    std::memcpy(fresh.data(), buffer_.data() + head_, first);
    if (count_ > first) {
      std::memcpy(fresh.data() + first, buffer_.data(), count_ - first);
    }
  }
  buffer_ = std::move(fresh);
  head_ = 0;
}

}  // namespace dpn::io
