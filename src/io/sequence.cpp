#include "io/sequence.hpp"

#include <algorithm>
#include <utility>

namespace dpn::io {

std::size_t SequenceInputStream::read_some(MutableByteSpan out) {
  if (out.empty()) return 0;
  for (;;) {
    if (closed_.load(std::memory_order_acquire)) {
      current_.reset();
      throw IoError{"read from closed SequenceInputStream"};
    }
    if (!current_ && !advance()) return 0;
    // No lock: append() and close() never touch current_ (see advance).
    const std::size_t n = current_->read_some(out);
    if (n > 0) return n;
    // Current stream exhausted: close it and advance.
    current_->close();
    current_.reset();
  }
}

bool SequenceInputStream::advance() {
  std::scoped_lock lock{mutex_};
  if (closed_.load(std::memory_order_relaxed)) {
    throw IoError{"read from closed SequenceInputStream"};
  }
  if (done_ || queue_.empty()) {
    done_ = true;
    published_.reset();
    return false;
  }
  current_ = std::move(queue_.front());
  queue_.pop_front();
  published_ = current_;
  return true;
}

void SequenceInputStream::close() {
  std::deque<std::shared_ptr<InputStream>> to_close;
  std::shared_ptr<InputStream> current;
  {
    std::scoped_lock lock{mutex_};
    closed_.store(true, std::memory_order_release);
    done_ = true;
    to_close.swap(queue_);
    current = std::move(published_);
  }
  // Wakes a reader blocked in it; the reader drops its own reference on
  // its next read.
  if (current) current->close();
  for (auto& s : to_close) s->close();
}

void SequenceInputStream::append(std::shared_ptr<InputStream> next) {
  bool close_it = false;
  {
    std::scoped_lock lock{mutex_};
    if (closed_.load(std::memory_order_relaxed) || done_) {
      close_it = true;  // sequence over; drop the late splice
    } else {
      queue_.push_back(std::move(next));
    }
  }
  if (close_it && next) next->close();
}

std::size_t SequenceInputStream::pending() const {
  std::scoped_lock lock{mutex_};
  return queue_.size() + (published_ ? 1 : 0);
}

bool SequenceInputStream::finished() const {
  std::scoped_lock lock{mutex_};
  return done_;
}

void SequenceOutputStream::write_vectored(ByteSpan a, ByteSpan b) {
  for (;;) {
    try {
      segment_->write_vectored(a, b);
      return;
    } catch (const WriteStopped& stop) {
      // The segment took the first stop.written bytes; the rest go on.
      const std::size_t first = std::min(stop.written, a.size());
      a = a.subspan(first);
      b = b.subspan(stop.written - first);
      std::scoped_lock lock{mutex_};
      if (closed_) throw IoError{"write to closed SequenceOutputStream"};
      if (current_ == segment_) throw;  // not a cut: the segment's own end
      segment_ = current_;
    }
  }
}

void SequenceOutputStream::close() {
  std::shared_ptr<OutputStream> last;
  {
    std::scoped_lock lock{mutex_};
    if (std::exchange(closed_, true)) return;
    last = current_;
  }
  last->close();
}

void SequenceOutputStream::switch_to(std::shared_ptr<OutputStream> next,
                                     bool close_old) {
  std::shared_ptr<OutputStream> old;
  {
    std::scoped_lock lock{mutex_};
    if (closed_) throw IoError{"switch_to on closed SequenceOutputStream"};
    old = std::exchange(current_, std::move(next));
  }
  if (close_old) {
    old->close();
  } else {
    old->stop();
  }
}

std::shared_ptr<OutputStream> SequenceOutputStream::current() const {
  std::scoped_lock lock{mutex_};
  return current_;
}

}  // namespace dpn::io
