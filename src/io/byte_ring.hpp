#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <new>

#include "support/bytes.hpp"

namespace dpn::io {

/// The bytes in flight in one direction of a byte channel: the storage
/// under io::Pipe and under each direction of a mux stream.
///
/// Single producer, single consumer, no lock.  `tail` and `head` are
/// monotonic byte positions; the producer publishes `tail`, the consumer
/// `head`, and the owner may keep state bits above kPosMask in either.
/// Storage is a chain of blocks: the producer links a block when it
/// needs one, sized by what the ring has carried (link()), and the
/// consumer hands each block it has read past back as the producer's
/// spare, so a steady stream cycles a few blocks and seldom allocates; a
/// consumer that has caught up frees the spare.  Storage is allocated at
/// the first byte and tracks the bytes in flight, which the owner bounds;
/// the blocks left are freed with the ring or by release().  A consumer
/// reading a span reads bytes the producer never touches again.
class ByteRing {
  struct Block {
    std::atomic<Block*> next{nullptr};
    std::uint64_t base = 0;  // position of bytes()[0]
    std::size_t size = 0;
    std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(this + 1); }
  };

 public:
  static constexpr std::uint64_t kPosMask = (std::uint64_t{1} << 61) - 1;

  ByteRing() = default;
  ByteRing(const ByteRing&) = delete;
  ByteRing& operator=(const ByteRing&) = delete;
  ~ByteRing() { release(); }

  /// Producer: copies `data` in from position `at`, the end of what it
  /// put before.  Publishing is the caller's.
  void put(std::uint64_t at, ByteSpan data) {
    while (!data.empty()) {
      Block* block = tail_block_;
      if (block == nullptr || at == block->base + block->size) {
        block = link(at);
      }
      const auto offset = static_cast<std::size_t>(at - block->base);
      const std::size_t n = std::min(data.size(), block->size - offset);
      std::memcpy(block->bytes() + offset, data.data(), n);
      data = data.subspan(n);
      at += n;
    }
  }

  /// Consumer: the contiguous bytes from position `at`, at most `limit`
  /// (>= 1) of them.  The caller loaded a tail of at least at + limit,
  /// so the producer has put them, and has linked every block before.
  ByteSpan peek(std::uint64_t at, std::uint64_t limit) {
    Block* block = head_block_;
    if (block == nullptr) {
      block = head_block_ = first_.load(std::memory_order_acquire);
    }
    while (at >= block->base + block->size) {
      Block* next = block->next.load(std::memory_order_acquire);
      if (Block* old = spare_.exchange(block, std::memory_order_acq_rel)) {
        free_block(old);
      }
      block = head_block_ = next;
    }
    const auto offset = static_cast<std::size_t>(at - block->base);
    return {block->bytes() + offset,
            static_cast<std::size_t>(
                std::min<std::uint64_t>(limit, block->size - offset))};
  }

  /// Consumer: copies the `n` bytes from position `at` into `out` (peek
  /// until done).  The same precondition as peek.
  void copy_out(std::uint64_t at, std::uint8_t* out, std::uint64_t n) {
    for (const std::uint64_t end = at + n; at < end;) {
      const ByteSpan span = peek(at, end - at);
      std::memcpy(out, span.data(), span.size());
      out += span.size();
      at += span.size();
    }
  }

  // One line per side, with room for the owner's view of the other side.
  alignas(64) std::atomic<std::uint64_t> tail{0};
  std::uint64_t head_seen = 0;  // producer: an owner's stale copy of head

 private:
  Block* tail_block_ = nullptr;  // producer

 public:
  alignas(64) std::atomic<std::uint64_t> head{0};
  std::uint64_t tail_seen = 0;  // consumer: an owner's stale copy of tail

  /// Consumer, having caught up with the producer: frees the spare, so
  /// an idle ring keeps one block.
  void drained() {
    if (spare_.load(std::memory_order_relaxed) != nullptr) {
      free_block(spare_.exchange(nullptr, std::memory_order_acquire));
    }
  }

  /// Frees every block.  Neither side may be inside put, peek or drained;
  /// a later put starts a fresh chain at its position.
  void release() {
    Block* block = head_block_ != nullptr
                       ? head_block_
                       : first_.load(std::memory_order_relaxed);
    while (block != nullptr) {
      Block* next = block->next.load(std::memory_order_relaxed);
      free_block(block);
      block = next;
    }
    free_block(spare_.exchange(nullptr, std::memory_order_relaxed));
    first_.store(nullptr, std::memory_order_relaxed);
    head_block_ = tail_block_ = nullptr;
  }

 private:
  Block* head_block_ = nullptr;  // consumer
  static constexpr std::size_t kFirstBlock = 256;
  static constexpr std::size_t kSmallBlock = 1024;
  static constexpr std::size_t kMaxBlock = 16 * 1024;

  /// Producer: starts a block at position `at` (the spare, if it is
  /// large enough) and links it after the current one.  Each block is
  /// twice the last, up to 1 KiB, and beyond that up to a sixteenth of
  /// what the ring has carried: a short stream keeps small blocks, a
  /// long one gets large blocks and few links.
  Block* link(std::uint64_t at) {
    std::size_t limit = kSmallBlock;
    while (limit < kMaxBlock && limit * 16 <= at) limit *= 2;
    const std::size_t size = tail_block_ == nullptr
                                 ? kFirstBlock
                                 : std::min(limit, tail_block_->size * 2);
    Block* block = spare_.exchange(nullptr, std::memory_order_acq_rel);
    if (block != nullptr && block->size < size) {
      free_block(block);
      block = nullptr;
    }
    if (block == nullptr) {
      block = new (::operator new(sizeof(Block) + size)) Block{};
      block->size = size;
    }
    block->next.store(nullptr, std::memory_order_relaxed);
    block->base = at;
    if (tail_block_ != nullptr) {
      tail_block_->next.store(block, std::memory_order_release);
    } else {
      first_.store(block, std::memory_order_release);
    }
    tail_block_ = block;
    return block;
  }

  static void free_block(Block* block) {
    if (block == nullptr) return;
    block->~Block();
    ::operator delete(block);
  }

  std::atomic<Block*> first_{nullptr};  // the first block ever linked
  std::atomic<Block*> spare_{nullptr};  // consumer -> producer
};

}  // namespace dpn::io
