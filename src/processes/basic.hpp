#pragma once

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
/// yet, then publishes the new size.  It locks only to grow the storage,
/// which readers copy under the same lock, so a reader always sees a
/// prefix of the pushes.  Storage is allocated, not filled, ahead of the
/// writer: its pages are touched only as values land.
template <typename T>
class CollectSink {
 public:
  CollectSink() = default;
  CollectSink(const CollectSink&) = delete;
  CollectSink& operator=(const CollectSink&) = delete;

  ~CollectSink() {
    std::destroy_n(data_, size_.load(std::memory_order_relaxed));
    if (data_ != nullptr) std::allocator<T>{}.deallocate(data_, capacity_);
  }

  /// One writer at a time (Kahn: the sink's one Collect process).
  void push(T value) {
    const std::size_t n = size_.load(std::memory_order_relaxed);
    if (n == capacity_) grow(n);
    std::construct_at(data_ + n, std::move(value));
    size_.store(n + 1, std::memory_order_release);
  }

  std::vector<T> values() const {
    std::scoped_lock lock{mutex_};
    return std::vector<T>(data_,
                          data_ + size_.load(std::memory_order_acquire));
  }

  std::size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  /// Moves the writer's `n` values to storage twice the size.
  void grow(std::size_t n) {
    std::allocator<T> alloc;
    const std::size_t capacity = capacity_ == 0 ? 64 : 2 * capacity_;
    T* data = alloc.allocate(capacity);
    std::scoped_lock lock{mutex_};
    std::uninitialized_move_n(data_, n, data);
    std::destroy_n(data_, n);
    if (data_ != nullptr) alloc.deallocate(data_, capacity_);
    data_ = data;
    capacity_ = capacity;
  }

  mutable std::mutex mutex_;
  // Written by the writer, under mutex_; so read by readers under it.
  T* data_ = nullptr;
  std::size_t capacity_ = 0;  // the writer's alone
  std::atomic<std::size_t> size_{0};
};

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
