#include "io/pipe.hpp"

#include <algorithm>
#include <cstring>

namespace dpn::io {

// No storage yet: put_locked allocates on the first write and grows it
// geometrically, so a pipe that never carries bytes (the idle byte plane
// under a live typed ring) costs nothing.
Pipe::Pipe(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

std::size_t Pipe::read_some(MutableByteSpan out) {
  if (out.empty()) return 0;
  std::unique_lock lock{mutex_};
  while (count_ == 0 && !write_closed_ && !read_closed_ && !aborted_) {
    readers_.wait(lock, sched::WaitTag::reading(flight_id_, count_,
                                                &read_block_hist_));
  }
  if (aborted_) throw Interrupted{"pipe aborted during read"};
  if (read_closed_) throw IoError{"read from closed pipe"};
  if (count_ == 0) return 0;  // write end closed and drained
  const std::size_t n = take_locked(out);
  writers_.wake_all();
  return n;
}

void Pipe::write(ByteSpan data) { write_vectored(data, {}); }

void Pipe::write_vectored(ByteSpan a, ByteSpan b) {
  std::unique_lock lock{mutex_};
  for (ByteSpan data : {a, b}) {
    while (!data.empty()) {
      if (aborted_) throw Interrupted{"pipe aborted during write"};
      if (read_closed_) throw ChannelClosed{};
      if (write_closed_) throw IoError{"write to closed pipe"};
      // Room is computed once per loop pass; when the pipe is full we wait
      // (the reader was already woken by the previous pass, so no extra
      // wake is issued before sleeping) and re-enter the loop.
      const std::size_t room = unbounded_ ? data.size() : capacity_ - count_;
      if (room == 0) {
        writers_.wait(lock, sched::WaitTag::writing(flight_id_, count_,
                                                    &write_block_hist_));
        continue;
      }
      const std::size_t n = std::min(room, data.size());
      put_locked(data.first(n));
      data = data.subspan(n);
      readers_.wake_all();
    }
  }
}

void Pipe::close_write() {
  std::scoped_lock lock{mutex_};
  write_closed_ = true;
  wake_all_locked();
}

void Pipe::close_read() {
  std::scoped_lock lock{mutex_};
  read_closed_ = true;
  // Data still buffered is discarded: the reader is gone.  The storage is
  // released too -- the pipe can never carry bytes again, and a shipped
  // endpoint's steal_buffer must deterministically find it empty.
  count_ = 0;
  head_ = 0;
  ByteVector{}.swap(buffer_);
  wake_all_locked();
}

void Pipe::abort() {
  std::scoped_lock lock{mutex_};
  aborted_ = true;
  wake_all_locked();
}

void Pipe::wake_all_locked() {
  readers_.wake_all();
  writers_.wake_all();
}

void Pipe::grow(std::size_t new_capacity) {
  std::scoped_lock lock{mutex_};
  if (new_capacity <= capacity_) return;
  capacity_ = new_capacity;
  writers_.wake_all();
}

void Pipe::set_unbounded() {
  std::scoped_lock lock{mutex_};
  unbounded_ = true;
  writers_.wake_all();
}

ByteVector Pipe::steal_buffer() {
  ByteVector out;
  std::scoped_lock lock{mutex_};
  out.resize(count_);
  take_locked({out.data(), out.size()});
  writers_.wake_all();
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
  s.size = count_;
  s.capacity = capacity_;
  s.occupancy_hwm = occupancy_hwm_;
  s.read_block = read_block_hist_.snapshot();
  s.write_block = write_block_hist_.snapshot();
  s.blocked_readers = readers_.size();
  s.blocked_writers = writers_.size();
  s.write_closed = write_closed_;
  s.read_closed = read_closed_;
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
