#include "io/sequence.hpp"

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

// The write gate.  state_ carries both halves of the handshake in one
// word -- the gate bit and the count of writes in flight -- so every
// enter, leave and raise is ordered against the others without a fence:
// a write whose enter finds kGate backs off, and a cut whose raise finds
// writes in flight waits for their leaves, which see kGate and wake it.

OutputStream& SequenceOutputStream::enter() {
  for (;;) {
    if ((state_.fetch_add(kWriter, std::memory_order_acquire) & kGate) == 0) {
      return *current_;
    }
    leave();
    std::unique_lock lock{mutex_};
    while ((state_.load(std::memory_order_relaxed) & kGate) != 0) {
      writers_.wait(lock);
    }
  }
}

void SequenceOutputStream::leave() noexcept {
  if ((state_.fetch_sub(kWriter, std::memory_order_release) & kGate) != 0) {
    std::scoped_lock lock{mutex_};
    cutters_.wake_all();
  }
}

SequenceOutputStream::Cut::Cut(SequenceOutputStream& seq) : seq_(seq) {
  std::unique_lock lock{seq_.mutex_};
  while (seq_.cutting_) seq_.cutters_.wait(lock);
  seq_.cutting_ = true;
  seq_.state_.fetch_or(kGate, std::memory_order_acquire);
  while (seq_.state_.load(std::memory_order_acquire) != kGate) {
    seq_.cutters_.wait(lock);
  }
}

SequenceOutputStream::Cut::~Cut() {
  std::scoped_lock lock{seq_.mutex_};
  seq_.cutting_ = false;
  seq_.state_.fetch_and(~kGate, std::memory_order_release);
  seq_.writers_.wake_all();
  seq_.cutters_.wake_all();
}

template <typename F>
void SequenceOutputStream::writing(F&& f) {
  OutputStream& out = enter();
  try {
    f(out);
  } catch (...) {
    leave();
    throw;
  }
  leave();
}

void SequenceOutputStream::write(ByteSpan data) {
  writing([&](OutputStream& out) {
    if (closed_) throw IoError{"write to closed SequenceOutputStream"};
    out.write(data);
  });
}

void SequenceOutputStream::write_byte(std::uint8_t b) {
  writing([&](OutputStream& out) {
    if (closed_) throw IoError{"write to closed SequenceOutputStream"};
    out.write_byte(b);
  });
}

void SequenceOutputStream::write_vectored(ByteSpan a, ByteSpan b) {
  writing([&](OutputStream& out) {
    if (closed_) throw IoError{"write to closed SequenceOutputStream"};
    out.write_vectored(a, b);
  });
}

void SequenceOutputStream::close() {
  const Cut scope{*this};
  if (std::exchange(closed_, true)) return;
  current_->close();
}

void SequenceOutputStream::switch_to(std::shared_ptr<OutputStream> next,
                                     bool close_old) {
  const Cut scope{*this};
  if (closed_) throw IoError{"switch_to on closed SequenceOutputStream"};
  if (close_old) current_->close();
  std::shared_ptr<OutputStream> old;
  std::scoped_lock lock{mutex_};  // current() reads it from any thread
  old = std::exchange(current_, std::move(next));
}

std::shared_ptr<OutputStream> SequenceOutputStream::current() const {
  std::scoped_lock lock{mutex_};
  return current_;
}

}  // namespace dpn::io
