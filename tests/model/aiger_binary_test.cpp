// Binary AIGER (.aig): hand-crafted decoding cases, write→read
// round-trips with behavioural equivalence, and cross-format agreement.
#include <gtest/gtest.h>

#include "model/aiger.hpp"
#include "model/benchgen.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace refbmc::model {
namespace {

TEST(AigerBinaryTest, HandCraftedAndGate) {
  // aig 3 2 0 1 1: inputs 2,4; AND 6 = 2 & 4.
  // Deltas: lhs=6, rhs0=4, rhs1=2 → delta0=2, delta1=2 (single bytes).
  std::string text = "aig 3 2 0 1 1\n6\n";
  text.push_back(static_cast<char>(2));
  text.push_back(static_cast<char>(2));
  const Netlist net = read_aiger_string(text);
  EXPECT_EQ(net.num_inputs(), 2u);
  EXPECT_EQ(net.num_ands(), 1u);
  ASSERT_EQ(net.outputs().size(), 1u);

  sim::Simulator s(net);
  for (int m = 0; m < 4; ++m) {
    s.evaluate({(m & 1) != 0, (m & 2) != 0});
    EXPECT_EQ(s.value(net.outputs()[0]), m == 3) << m;
  }
}

TEST(AigerBinaryTest, MultiByteDeltaDecodes) {
  // A delta ≥ 128 exercises the continuation-byte path.  Construct
  // aig with 200 inputs and one AND of inputs 1 and 100:
  // lhs = 2*201 = 402, rhs0 = 2*100=200, rhs1 = 2*1=2:
  // delta0 = 202, delta1 = 198 — delta0 needs two bytes.
  std::string text = "aig 201 200 0 1 1\n402\n";
  const auto push_delta = [&text](unsigned d) {
    while (d >= 0x80u) {
      text.push_back(static_cast<char>((d & 0x7fu) | 0x80u));
      d >>= 7;
    }
    text.push_back(static_cast<char>(d));
  };
  push_delta(202);
  push_delta(198);
  const Netlist net = read_aiger_string(text);
  EXPECT_EQ(net.num_inputs(), 200u);
  EXPECT_EQ(net.num_ands(), 1u);
}

TEST(AigerBinaryTest, MalformedBinaryRejected) {
  // M != I+L+A.
  EXPECT_THROW(read_aiger_string("aig 5 2 0 0 1\n"), std::invalid_argument);
  // Truncated delta section.
  EXPECT_THROW(read_aiger_string("aig 3 2 0 0 1\n"), std::invalid_argument);
  std::string cont = "aig 3 2 0 0 1\n";
  cont.push_back(static_cast<char>(0x80));  // continuation with no next byte
  EXPECT_THROW(read_aiger_string(cont), std::invalid_argument);
  // delta0 = 0 would mean rhs0 == lhs (cyclic).
  std::string cyc = "aig 3 2 0 0 1\n";
  cyc.push_back(static_cast<char>(0));
  cyc.push_back(static_cast<char>(0));
  EXPECT_THROW(read_aiger_string(cyc), std::invalid_argument);
  // Hostile headers whose 32-bit counts wrap: I+L+A wrapping to M,
  // M + 1 wrapping to 0, and I+L+A wrapping below M.
  EXPECT_THROW(read_aiger_string("aig 0 4294967295 1 0 0\n"),
               std::invalid_argument);
  EXPECT_THROW(read_aiger_string("aag 4294967295 0 0 0 0\n"),
               std::invalid_argument);
  EXPECT_THROW(read_aiger_string("aag 5 4294967295 1 0 0\n"),
               std::invalid_argument);
}

TEST(AigerBinaryTest, RoundTripPreservesBehaviour) {
  for (const auto& original :
       {counter_reach(4, 9, true).net, fifo_buggy(3).net,
        peterson_safe().net, with_distractor(arbiter_safe(4), 6, 5).net}) {
    const Netlist copy =
        read_aiger_string(to_aiger_binary_string(original));
    ASSERT_EQ(copy.num_inputs(), original.num_inputs());
    ASSERT_EQ(copy.num_latches(), original.num_latches());
    ASSERT_EQ(copy.num_ands(), original.num_ands());

    sim::Simulator sim_a(original);
    sim::Simulator sim_b(copy);
    Rng rng(321);
    for (int cycle = 0; cycle < 40; ++cycle) {
      const sim::InputFrame frame = sim_a.random_inputs(rng);
      sim_a.evaluate(frame);
      sim_b.evaluate(frame);
      for (std::size_t p = 0; p < original.bad_properties().size(); ++p)
        EXPECT_EQ(sim_a.value(original.bad_properties()[p].signal),
                  sim_b.value(copy.bad_properties()[p].signal))
            << "cycle " << cycle;
      sim_a.step(frame);
      sim_b.step(frame);
    }
  }
}

TEST(AigerBinaryTest, BinaryAndAsciiAgree) {
  const Netlist original = traffic_buggy(4).net;
  const Netlist via_ascii = read_aiger_string(to_aiger_string(original));
  const Netlist via_binary =
      read_aiger_string(to_aiger_binary_string(original));
  EXPECT_EQ(via_ascii.num_ands(), via_binary.num_ands());
  EXPECT_EQ(via_ascii.num_latches(), via_binary.num_latches());
  // Same bad-signal behaviour under a deterministic stimulus.
  sim::Simulator a(via_ascii), b(via_binary);
  for (int cycle = 0; cycle < 20; ++cycle) {
    const sim::InputFrame frame(via_ascii.num_inputs(),
                                (cycle % 3) == 0);
    a.evaluate(frame);
    b.evaluate(frame);
    EXPECT_EQ(a.value(via_ascii.bad_properties()[0].signal),
              b.value(via_binary.bad_properties()[0].signal));
    a.step(frame);
    b.step(frame);
  }
}

TEST(AigerBinaryTest, NamesAndInitSurvive) {
  Netlist net;
  const Signal in = net.add_input("clk_en");
  const Signal l = net.add_latch(sat::l_Undef, "ff");
  net.set_next(l, in);
  net.add_bad(l, "latched_high");
  const Netlist copy = read_aiger_string(to_aiger_binary_string(net));
  EXPECT_TRUE(copy.find_by_name("clk_en").has_value());
  EXPECT_TRUE(copy.find_by_name("ff").has_value());
  EXPECT_EQ(copy.latch_init(*copy.find_by_name("ff")), sat::l_Undef);
  EXPECT_EQ(copy.bad_properties()[0].name, "latched_high");
}

}  // namespace
}  // namespace refbmc::model
