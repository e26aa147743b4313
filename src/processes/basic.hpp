#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "core/process.hpp"
#include "io/data.hpp"

/// Sources and sinks: Constant, Sequence, Print, Collect (paper Figures
/// 2, 6, 7, 11).  Numeric elements are 8-byte big-endian values written
/// through the Data stream layer, as in the Java implementation.
namespace dpn::processes {

using core::ChannelInputStream;
using core::ChannelOutputStream;
using core::IterativeProcess;

/// Writes a fixed i64 once per step (`Constant(1, ab.out, 1)` in the
/// paper's Fibonacci code writes a single 1).
class Constant final : public IterativeProcess {
 public:
  Constant(std::int64_t value, std::shared_ptr<ChannelOutputStream> out,
           long iterations = 0);

  std::string type_name() const override { return "dpn.Constant"; }
  void write_fields(serial::ObjectOutputStream& out) const override;
  static std::shared_ptr<Constant> read_object(serial::ObjectInputStream& in);

 protected:
  void step() override;

 private:
  Constant() = default;
  std::int64_t value_ = 0;
};

/// Writes a fixed f64 once per step (the x input of the Newton network).
class ConstantF64 final : public IterativeProcess {
 public:
  ConstantF64(double value, std::shared_ptr<ChannelOutputStream> out,
              long iterations = 0);

  std::string type_name() const override { return "dpn.ConstantF64"; }
  void write_fields(serial::ObjectOutputStream& out) const override;
  static std::shared_ptr<ConstantF64> read_object(
      serial::ObjectInputStream& in);

 protected:
  void step() override;

 private:
  ConstantF64() = default;
  double value_ = 0;
};

/// Writes consecutive integers start, start+stride, ... (the integer
/// source of the Sieve of Eratosthenes, Figure 7).
class Sequence final : public IterativeProcess {
 public:
  Sequence(std::int64_t start, std::shared_ptr<ChannelOutputStream> out,
           long iterations = 0, std::int64_t stride = 1);

  std::string type_name() const override { return "dpn.Sequence"; }
  void write_fields(serial::ObjectOutputStream& out) const override;
  static std::shared_ptr<Sequence> read_object(serial::ObjectInputStream& in);

 protected:
  void step() override;

 private:
  Sequence() = default;
  std::int64_t next_ = 0;
  std::int64_t stride_ = 1;
};

/// Prints each i64 element to a FILE stream (stdout by default).
class Print final : public IterativeProcess {
 public:
  explicit Print(std::shared_ptr<ChannelInputStream> in, long iterations = 0,
                 std::string label = {}, std::FILE* sink = stdout);

  std::string type_name() const override { return "dpn.Print"; }
  void write_fields(serial::ObjectOutputStream& out) const override;
  static std::shared_ptr<Print> read_object(serial::ObjectInputStream& in);

 protected:
  void step() override;

 private:
  Print() = default;
  std::string label_;
  std::FILE* sink_ = stdout;  // not serialized; remote Print uses stdout
};

/// Prints each f64 element.
class PrintF64 final : public IterativeProcess {
 public:
  explicit PrintF64(std::shared_ptr<ChannelInputStream> in,
                    long iterations = 0, std::string label = {},
                    std::FILE* sink = stdout);

  std::string type_name() const override { return "dpn.PrintF64"; }
  void write_fields(serial::ObjectOutputStream& out) const override;
  static std::shared_ptr<PrintF64> read_object(serial::ObjectInputStream& in);

 protected:
  void step() override;

 private:
  PrintF64() = default;
  std::string label_;
  std::FILE* sink_ = stdout;
};

/// Result collector shared between a Collect process, its one writer, and
/// the test or application that wants the values, from any thread.
/// push() takes no lock: it builds the value in storage no reader looks at
/// yet, then publishes the new size.  Values live in chunks of 64, 64, 128,
/// 256, ... up to kMaxChunk values, so the total capacity doubles as a
/// vector's would but growing copies nothing: grow() only allocates the
/// next chunk and appends it, under the lock, to the list readers walk
/// under the same lock, so a reader always sees a prefix of the pushes.
/// Chunks are allocated, not filled, ahead of the writer: their pages are
/// touched only as values land.  The writer's words sit on their own cache
/// line (DESIGN.md §6 item 9): sinks are allocated one after another, and
/// each writer stores its size every token.
template <typename T>
class alignas(64) CollectSink {
 public:
  /// The largest chunk, in values; every chunk after it has this size.
  static constexpr std::size_t kMaxChunk = std::size_t{1} << 16;

  CollectSink() = default;
  CollectSink(const CollectSink&) = delete;
  CollectSink& operator=(const CollectSink&) = delete;

  ~CollectSink() {
    std::size_t left = size_.load(std::memory_order_relaxed);
    for (const Chunk& chunk : chunks_) {
      const std::size_t n = std::min(left, chunk.capacity);
      std::destroy_n(chunk.data, n);
      left -= n;
      std::allocator<T>{}.deallocate(chunk.data, chunk.capacity);
    }
  }

  /// One writer at a time (Kahn: the sink's one Collect process).
  void push(T value) {
    if (next_ == limit_) grow();
    std::construct_at(next_, std::move(value));
    ++next_;
    size_.store(size_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  }

  std::vector<T> values() const {
    std::scoped_lock lock{mutex_};
    std::size_t left = size_.load(std::memory_order_acquire);
    std::vector<T> out;
    out.reserve(left);
    for (auto chunk = chunks_.begin(); left > 0; ++chunk) {
      const std::size_t n = std::min(left, chunk->capacity);
      out.insert(out.end(), chunk->data, chunk->data + n);
      left -= n;
    }
    return out;
  }

  std::size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  struct Chunk {
    T* data;
    std::size_t capacity;
  };

  /// Appends the next chunk: as large as all before it, up to kMaxChunk.
  void grow() {
    const std::size_t capacity =
        total_ == 0 ? 64 : std::min(total_, kMaxChunk);
    T* data = std::allocator<T>{}.allocate(capacity);
    try {
      std::scoped_lock lock{mutex_};
      chunks_.push_back({data, capacity});
    } catch (...) {
      std::allocator<T>{}.deallocate(data, capacity);
      throw;
    }
    total_ += capacity;
    next_ = data;
    limit_ = data + capacity;
  }

  // The writer's line: written every push, and read by size().
  std::atomic<std::size_t> size_{0};
  T* next_ = nullptr;   // where the next value goes
  T* limit_ = nullptr;  // the end of the last chunk
  std::size_t total_ = 0;  // the chunks' capacities summed

  // Readers' line: the writer appends to chunks_ under mutex_, readers
  // walk it under mutex_.
  alignas(64) mutable std::mutex mutex_;
  std::vector<Chunk> chunks_;
};
static_assert(alignof(CollectSink<std::int64_t>) == 64 &&
                  sizeof(CollectSink<std::int64_t>) == 128,
              "a sink's writer words fill a line no reader or peer writes");

/// Collects i64 elements into a CollectSink.  Local-only (the sink lives
/// in this address space), so it refuses to be shipped.
class Collect final : public IterativeProcess {
 public:
  Collect(std::shared_ptr<ChannelInputStream> in,
          std::shared_ptr<CollectSink<std::int64_t>> sink,
          long iterations = 0);

  std::string type_name() const override { return "dpn.Collect"; }
  void write_fields(serial::ObjectOutputStream&) const override {
    throw SerializationError{"Collect holds a process-local sink"};
  }

 protected:
  void step() override;

 private:
  std::shared_ptr<CollectSink<std::int64_t>> sink_;
};

/// Collects f64 elements into a CollectSink.  Local-only.
class CollectF64 final : public IterativeProcess {
 public:
  CollectF64(std::shared_ptr<ChannelInputStream> in,
             std::shared_ptr<CollectSink<double>> sink, long iterations = 0);

  std::string type_name() const override { return "dpn.CollectF64"; }
  void write_fields(serial::ObjectOutputStream&) const override {
    throw SerializationError{"CollectF64 holds a process-local sink"};
  }

 protected:
  void step() override;

 private:
  std::shared_ptr<CollectSink<double>> sink_;
};

}  // namespace dpn::processes
