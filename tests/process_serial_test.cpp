#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "dist/ship.hpp"
#include "dsp/beam.hpp"
#include "factor/factor.hpp"
#include "par/generic.hpp"
#include "processes/arith.hpp"
#include "processes/basic.hpp"
#include "processes/copy.hpp"
#include "processes/merge.hpp"
#include "processes/router.hpp"
#include "processes/sieve.hpp"

/// Shipping round trips for every serializable process type: each one is
/// serialized with live channel endpoints, reconstructed on a second
/// node, and checked for identity of type, configuration, and endpoint
/// arity.  This exercises every read_object factory and write_fields
/// implementation in the process library.
namespace dpn {
namespace {

using core::Channel;
using core::Process;

std::shared_ptr<dist::NodeContext>& node_a() {
  static auto node = dist::NodeContext::create();
  return node;
}
std::shared_ptr<dist::NodeContext>& node_b() {
  static auto node = dist::NodeContext::create();
  return node;
}

std::shared_ptr<Process> roundtrip(const std::shared_ptr<Process>& process) {
  const ByteVector bytes = dist::ship_process(node_a(), process);
  auto restored =
      dist::receive_process(node_b(), {bytes.data(), bytes.size()});
  EXPECT_EQ(restored->type_name(), process->type_name());
  EXPECT_EQ(restored->channel_inputs().size(),
            process->channel_inputs().size());
  EXPECT_EQ(restored->channel_outputs().size(),
            process->channel_outputs().size());
  return restored;
}

std::shared_ptr<Channel> ch() { return std::make_shared<Channel>(4096); }

TEST(ProcessSerial, Constant) {
  auto p = std::make_shared<processes::Constant>(42, ch()->output(), 7);
  auto r = std::dynamic_pointer_cast<processes::Constant>(roundtrip(p));
  ASSERT_TRUE(r);
  EXPECT_EQ(r->iterations(), 7);
}

TEST(ProcessSerial, ConstantF64) {
  auto p = std::make_shared<processes::ConstantF64>(2.5, ch()->output(), 3);
  EXPECT_TRUE(std::dynamic_pointer_cast<processes::ConstantF64>(
      roundtrip(p)));
}

TEST(ProcessSerial, SequenceCarriesMidRunState) {
  auto channel = ch();
  auto p = std::make_shared<processes::Sequence>(10, channel->output(), 100,
                                                 3);
  auto r = std::dynamic_pointer_cast<processes::Sequence>(roundtrip(p));
  ASSERT_TRUE(r);
  EXPECT_EQ(r->iterations(), 100);
}

TEST(ProcessSerial, PrintKeepsLabel) {
  auto p = std::make_shared<processes::Print>(ch()->input(), 5, "tag");
  EXPECT_TRUE(std::dynamic_pointer_cast<processes::Print>(roundtrip(p)));
}

TEST(ProcessSerial, PrintF64) {
  auto p = std::make_shared<processes::PrintF64>(ch()->input(), 5, "x");
  EXPECT_TRUE(std::dynamic_pointer_cast<processes::PrintF64>(roundtrip(p)));
}

TEST(ProcessSerial, Cons) {
  auto p = std::make_shared<processes::Cons>(ch()->input(), ch()->input(),
                                             ch()->output());
  auto r = std::dynamic_pointer_cast<processes::Cons>(roundtrip(p));
  ASSERT_TRUE(r);
  EXPECT_FALSE(r->spliced_out());
}

TEST(ProcessSerial, Duplicate) {
  auto p = std::make_shared<processes::Duplicate>(
      ch()->input(), std::vector{ch()->output(), ch()->output(),
                                 ch()->output()});
  auto r = roundtrip(p);
  EXPECT_EQ(r->channel_outputs().size(), 3u);
}

TEST(ProcessSerial, Identity) {
  auto p = std::make_shared<processes::Identity>(ch()->input(),
                                                 ch()->output());
  EXPECT_TRUE(std::dynamic_pointer_cast<processes::Identity>(roundtrip(p)));
}

TEST(ProcessSerial, ArithmeticFamily) {
  roundtrip(std::make_shared<processes::Add>(ch()->input(), ch()->input(),
                                             ch()->output()));
  roundtrip(std::make_shared<processes::Scale>(ch()->input(), ch()->output(),
                                               -9));
  roundtrip(std::make_shared<processes::Divide>(ch()->input(), ch()->input(),
                                                ch()->output()));
  roundtrip(std::make_shared<processes::Average>(
      ch()->input(), ch()->input(), ch()->output()));
  roundtrip(std::make_shared<processes::Equal>(ch()->input(), ch()->input(),
                                               ch()->output()));
  roundtrip(std::make_shared<processes::Guard>(ch()->input(), ch()->input(),
                                               ch()->output(), false));
}

TEST(ProcessSerial, SieveFamily) {
  roundtrip(std::make_shared<processes::Modulo>(ch()->input(),
                                                ch()->output(), 13));
  roundtrip(std::make_shared<processes::Sift>(ch()->input(), ch()->output()));
  roundtrip(std::make_shared<processes::RecursiveSift>(ch()->input(),
                                                       ch()->output()));
}

TEST(ProcessSerial, MergeFamily) {
  roundtrip(std::make_shared<processes::OrderedMerge>(
      std::vector{ch()->input(), ch()->input(), ch()->input()},
      ch()->output()));
  roundtrip(std::make_shared<processes::RouteByDivisibility>(
      ch()->input(), ch()->output(), ch()->output(), 4));
}

TEST(ProcessSerial, RouterFamily) {
  roundtrip(std::make_shared<processes::Scatter>(
      ch()->input(), std::vector{ch()->output(), ch()->output()}));
  roundtrip(std::make_shared<processes::Gather>(
      std::vector{ch()->input(), ch()->input()}, ch()->output()));
  roundtrip(std::make_shared<processes::Direct>(
      ch()->input(), ch()->input(),
      std::vector{ch()->output(), ch()->output()}));
  roundtrip(std::make_shared<processes::Turnstile>(
      std::vector{ch()->input(), ch()->input()}, ch()->output(),
      ch()->output()));
  roundtrip(std::make_shared<processes::Select>(ch()->input(),
                                                ch()->output(), 4));
}

TEST(ProcessSerial, ParFamily) {
  const auto problem = factor::FactorProblem::generate(1, 64, 2);
  roundtrip(std::make_shared<par::Producer>(
      std::make_shared<factor::FactorProducerTask>(problem.n, 2),
      ch()->output()));
  roundtrip(std::make_shared<par::Worker>(ch()->input(), ch()->output()));
  roundtrip(std::make_shared<par::Consumer>(ch()->input()));
}

TEST(ProcessSerial, ThrottledWorker) {
  auto p = std::make_shared<cluster::ThrottledWorker>(
      ch()->input(), ch()->output(), 1.5, 0.002);
  auto r = std::dynamic_pointer_cast<cluster::ThrottledWorker>(roundtrip(p));
  ASSERT_TRUE(r);
  EXPECT_DOUBLE_EQ(r->speed(), 1.5);
}

TEST(ProcessSerial, DspFamily) {
  roundtrip(std::make_shared<dsp::PlaneWaveSource>(ch()->output(), 0.1, 2.0,
                                                   0.5, 9, 100));
  roundtrip(std::make_shared<dsp::DelaySum>(
      std::vector{ch()->input(), ch()->input()}, ch()->output(),
      std::vector<std::uint32_t>{0, 3}));
  roundtrip(std::make_shared<dsp::SpectralPower>(ch()->input(),
                                                 ch()->output(), 64, 4));
}

TEST(ProcessSerial, CompositeOfMixedMembers) {
  auto composite = std::make_shared<core::CompositeProcess>();
  auto inner = ch();  // internal channel between the two members
  composite->add(
      std::make_shared<processes::Scale>(ch()->input(), inner->output(), 2));
  composite->add(std::make_shared<processes::Modulo>(inner->input(),
                                                     ch()->output(), 3));
  auto r = std::dynamic_pointer_cast<core::CompositeProcess>(
      roundtrip(composite));
  ASSERT_TRUE(r);
  EXPECT_EQ(r->processes().size(), 2u);
  EXPECT_EQ(r->processes()[0]->type_name(), "dpn.Scale");
  EXPECT_EQ(r->processes()[1]->type_name(), "dpn.Modulo");
}

TEST(ProcessSerial, RestoredProcessActuallyRuns) {
  // Beyond structure: a reconstructed Scale transforms data correctly
  // through its reconnected channels.
  auto in = std::make_shared<Channel>(4096);
  auto out = std::make_shared<Channel>(4096);
  auto scale = std::make_shared<processes::Scale>(in->input(), out->output(),
                                                  5);
  auto restored = roundtrip(scale);
  std::jthread host{[&] { restored->run(); }};
  io::DataOutputStream writer{*in->output()};
  io::DataInputStream reader{*out->input()};
  for (int i = 0; i < 20; ++i) {
    writer.write_i64(i);
    EXPECT_EQ(reader.read_i64(), 5 * i);
  }
  in->output()->close();
}

}  // namespace
}  // namespace dpn
