#include "processes/merge.hpp"

#include "io/data.hpp"

namespace dpn::processes {

OrderedMerge::OrderedMerge(
    std::vector<std::shared_ptr<ChannelInputStream>> ins,
    std::shared_ptr<ChannelOutputStream> out, bool eliminate_duplicates,
    long iterations)
    : IterativeProcess(iterations),
      eliminate_duplicates_(eliminate_duplicates) {
  if (ins.empty()) throw UsageError{"OrderedMerge needs at least one input"};
  for (auto& in : ins) track_input(std::move(in));
  track_output(std::move(out));
}

void OrderedMerge::refill(std::size_t index) {
  io::DataInputStream in{*input(index)};
  try {
    heads_[index] = in.read_i64();
  } catch (const EndOfStream&) {
    heads_[index] = std::nullopt;
  }
}

void OrderedMerge::on_start() {
  if (primed_) return;  // resumed from a serialized mid-run snapshot
  heads_.assign(input_count(), std::nullopt);
  for (std::size_t i = 0; i < input_count(); ++i) refill(i);
  primed_ = true;
}

void OrderedMerge::step() {
  std::optional<std::int64_t> least;
  for (const auto& head : heads_) {
    if (head && (!least || *head < *least)) least = *head;
  }
  if (!least) throw EndOfStream{"all merge inputs ended"};

  io::DataOutputStream out{*output(0)};
  if (eliminate_duplicates_) {
    out.write_i64(*least);
    for (std::size_t i = 0; i < heads_.size(); ++i) {
      if (heads_[i] && *heads_[i] == *least) refill(i);
    }
  } else {
    // Emit once per holder, advancing the lowest-indexed holder only, so
    // multiplicity is preserved deterministically.
    for (std::size_t i = 0; i < heads_.size(); ++i) {
      if (heads_[i] && *heads_[i] == *least) {
        out.write_i64(*least);
        refill(i);
        break;
      }
    }
  }
}

void OrderedMerge::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
  out.write_bool(eliminate_duplicates_);
  out.write_bool(primed_);
  if (primed_) {
    out.write_varint(heads_.size());
    for (const auto& head : heads_) {
      out.write_bool(head.has_value());
      out.write_i64(head.value_or(0));
    }
  }
}

std::shared_ptr<OrderedMerge> OrderedMerge::read_object(
    serial::ObjectInputStream& in) {
  auto process = std::shared_ptr<OrderedMerge>(new OrderedMerge);
  process->read_base(in);
  process->eliminate_duplicates_ = in.read_bool();
  process->primed_ = in.read_bool();
  if (process->primed_) {
    const std::uint64_t n = in.read_varint();
    process->heads_.resize(n);
    for (auto& head : process->heads_) {
      const bool has = in.read_bool();
      const std::int64_t value = in.read_i64();
      head = has ? std::optional<std::int64_t>{value} : std::nullopt;
    }
  }
  return process;
}

RouteByDivisibility::RouteByDivisibility(
    std::shared_ptr<ChannelInputStream> in,
    std::shared_ptr<ChannelOutputStream> multiples,
    std::shared_ptr<ChannelOutputStream> others, std::int64_t divisor,
    long iterations)
    : IterativeProcess(iterations), divisor_(divisor) {
  if (divisor == 0) {
    throw UsageError{"RouteByDivisibility divisor must be nonzero"};
  }
  track_input(std::move(in));
  track_output(std::move(multiples));
  track_output(std::move(others));
}

void RouteByDivisibility::step() {
  io::DataInputStream in{*input(0)};
  io::DataOutputStream multiples{*output(0)};
  io::DataOutputStream others{*output(1)};
  const std::int64_t value = in.read_i64();
  if (value % divisor_ == 0) {
    multiples.write_i64(value);
  } else {
    others.write_i64(value);
  }
}

void RouteByDivisibility::write_fields(serial::ObjectOutputStream& out) const {
  write_base(out);
  out.write_i64(divisor_);
}

std::shared_ptr<RouteByDivisibility> RouteByDivisibility::read_object(
    serial::ObjectInputStream& in) {
  auto process =
      std::shared_ptr<RouteByDivisibility>(new RouteByDivisibility);
  process->read_base(in);
  process->divisor_ = in.read_i64();
  return process;
}

namespace {
[[maybe_unused]] const bool kRegistered =
    serial::register_type<OrderedMerge>("dpn.OrderedMerge") &&
    serial::register_type<RouteByDivisibility>("dpn.RouteByDivisibility");
}

}  // namespace dpn::processes
