#pragma once

#include <algorithm>
#include <cstring>

#include "io/stream.hpp"
#include "support/bytes.hpp"

namespace dpn::io {

/// Reads from an owned byte buffer; end-of-stream when exhausted.  Used to
/// carry a channel's unconsumed bytes along with a migrating endpoint
/// (prepended to the endpoint's SequenceInputStream on arrival).
class MemoryInputStream final : public InputStream {
 public:
  explicit MemoryInputStream(ByteVector data) : data_(std::move(data)) {}

  std::size_t read_some(MutableByteSpan out) override {
    const std::size_t n = std::min(out.size(), data_.size() - pos_);
    if (n == 0) return 0;  // either pointer may be null: no memcpy
    std::memcpy(out.data(), data_.data() + pos_, n);
    pos_ += n;
    return n;
  }

  void close() override { pos_ = data_.size(); }

  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  ByteVector data_;
  std::size_t pos_ = 0;
};

/// Appends to a growable byte buffer.  One thread: close() must not race
/// a write.
class MemoryOutputStream final : public OutputStream {
 public:
  void write(ByteSpan data) override {
    if (closed_) throw WriteStopped{0, "write to closed MemoryOutputStream"};
    buffer_.insert(buffer_.end(), data.begin(), data.end());
  }

  void write_vectored(ByteSpan a, ByteSpan b) override {
    if (closed_) throw WriteStopped{0, "write to closed MemoryOutputStream"};
    // No exact-fit reserve here: pinning capacity to size+needed makes
    // every subsequent append reallocate and copy the whole buffer
    // (quadratic); insert's geometric growth amortizes to O(1).
    buffer_.insert(buffer_.end(), a.begin(), a.end());
    buffer_.insert(buffer_.end(), b.begin(), b.end());
  }

  void close() override { closed_ = true; }

  const ByteVector& data() const { return buffer_; }
  ByteVector take() { return std::move(buffer_); }

 private:
  ByteVector buffer_;
  bool closed_ = false;
};

}  // namespace dpn::io
