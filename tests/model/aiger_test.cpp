#include "model/aiger.hpp"

#include <gtest/gtest.h>

#include "model/benchgen.hpp"
#include "model/builder.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace refbmc::model {
namespace {

TEST(AigerTest, ParseMinimal) {
  // Single input fed to a single output.
  const Netlist net = read_aiger_string(
      "aag 1 1 0 1 0\n"
      "2\n"
      "2\n");
  EXPECT_EQ(net.num_inputs(), 1u);
  EXPECT_EQ(net.outputs().size(), 1u);
}

TEST(AigerTest, ParseAndGateWithNames) {
  const Netlist net = read_aiger_string(
      "aag 3 2 0 1 1\n"
      "2\n"
      "4\n"
      "6\n"
      "6 2 4\n"
      "i0 x\n"
      "i1 y\n"
      "o0 x_and_y\n");
  EXPECT_EQ(net.num_inputs(), 2u);
  EXPECT_EQ(net.num_ands(), 1u);
  EXPECT_TRUE(net.find_by_name("x").has_value());
  EXPECT_TRUE(net.find_by_name("y").has_value());
}

TEST(AigerTest, ParseLatchWithInitValues) {
  // Latch init: default 0, explicit 1, self-literal = uninitialised.
  const Netlist net = read_aiger_string(
      "aag 3 0 3 0 0\n"
      "2 2\n"
      "4 4 1\n"
      "6 6 6\n");
  const auto& latches = net.latches();
  ASSERT_EQ(latches.size(), 3u);
  EXPECT_EQ(net.latch_init(latches[0]), sat::l_False);
  EXPECT_EQ(net.latch_init(latches[1]), sat::l_True);
  EXPECT_EQ(net.latch_init(latches[2]), sat::l_Undef);
}

TEST(AigerTest, ParseBadSection) {
  const Netlist net = read_aiger_string(
      "aag 1 0 1 0 0 1\n"
      "2 3\n"
      "2\n"
      "b0 toggle_high\n");
  ASSERT_EQ(net.bad_properties().size(), 1u);
  EXPECT_EQ(net.bad_properties()[0].name, "toggle_high");
}

TEST(AigerTest, OutOfOrderAndDefinitions) {
  // AND 8 references AND 6 defined after it; parser must resolve.
  const Netlist net = read_aiger_string(
      "aag 4 2 0 1 2\n"
      "2\n"
      "4\n"
      "8\n"
      "8 6 2\n"
      "6 2 4\n");
  EXPECT_EQ(net.num_ands(), 2u);
}

TEST(AigerTest, MalformedInputsRejected) {
  EXPECT_THROW(read_aiger_string(""), std::invalid_argument);
  EXPECT_THROW(read_aiger_string("aig 1 0 0 0 0\n"), std::invalid_argument);
  // Literal out of range.
  EXPECT_THROW(read_aiger_string("aag 1 1 0 1 0\n2\n9\n"),
               std::invalid_argument);
  // Odd input literal.
  EXPECT_THROW(read_aiger_string("aag 1 1 0 0 0\n3\n"),
               std::invalid_argument);
  // Cyclic AND definition.
  EXPECT_THROW(read_aiger_string("aag 2 0 0 1 2\n2\n2 4 4\n4 2 2\n"),
               std::invalid_argument);
  // Undefined variable used as output.
  EXPECT_THROW(read_aiger_string("aag 2 1 0 1 0\n2\n4\n"),
               std::invalid_argument);
  // Unsupported C section.
  EXPECT_THROW(read_aiger_string("aag 1 1 0 0 0 0 1\n2\n"),
               std::invalid_argument);
  // Header undercounts nodes.
  EXPECT_THROW(read_aiger_string("aag 0 1 0 0 0\n2\n"),
               std::invalid_argument);
  // Hostile headers whose 32-bit counts wrap: I+L+A wrapping to M,
  // M + 1 wrapping to 0, and I+L+A wrapping below M.
  EXPECT_THROW(read_aiger_string("aig 0 4294967295 1 0 0\n"),
               std::invalid_argument);
  EXPECT_THROW(read_aiger_string("aag 4294967295 0 0 0 0\n"),
               std::invalid_argument);
  EXPECT_THROW(read_aiger_string("aag 5 4294967295 1 0 0\n"),
               std::invalid_argument);
}

TEST(AigerTest, RoundTripPreservesBehaviour) {
  // Write a benchmark circuit, read it back, and compare random
  // simulations step by step.
  for (const auto& original :
       {counter_reach(4, 9, true).net, fifo_buggy(3).net,
        peterson_safe().net}) {
    const Netlist copy = read_aiger_string(to_aiger_string(original));
    ASSERT_EQ(copy.num_inputs(), original.num_inputs());
    ASSERT_EQ(copy.num_latches(), original.num_latches());
    ASSERT_EQ(copy.bad_properties().size(),
              original.bad_properties().size());

    sim::Simulator sim_a(original);
    sim::Simulator sim_b(copy);
    Rng rng(555);
    for (int cycle = 0; cycle < 50; ++cycle) {
      const sim::InputFrame frame = sim_a.random_inputs(rng);
      sim_a.evaluate(frame);
      sim_b.evaluate(frame);
      for (std::size_t p = 0; p < original.bad_properties().size(); ++p) {
        EXPECT_EQ(sim_a.value(original.bad_properties()[p].signal),
                  sim_b.value(copy.bad_properties()[p].signal))
            << "cycle " << cycle;
      }
      sim_a.step(frame);
      sim_b.step(frame);
    }
  }
}

TEST(AigerTest, RoundTripPreservesNamesAndInit) {
  Netlist net;
  Builder b(net);
  const Signal in = net.add_input("enable");
  const Signal l0 = net.add_latch(sat::l_True, "state0");
  const Signal l1 = net.add_latch(sat::l_Undef, "state1");
  net.set_next(l0, b.xor_(l0, in));
  net.set_next(l1, l0);
  net.add_bad(b.and_(l0, l1), "both_high");
  const Netlist copy = read_aiger_string(to_aiger_string(net));
  EXPECT_TRUE(copy.find_by_name("enable").has_value());
  EXPECT_TRUE(copy.find_by_name("state0").has_value());
  EXPECT_EQ(copy.latch_init(*copy.find_by_name("state0")), sat::l_True);
  EXPECT_EQ(copy.latch_init(*copy.find_by_name("state1")), sat::l_Undef);
  EXPECT_EQ(copy.bad_properties()[0].name, "both_high");
}

TEST(AigerTest, FileRoundTrip) {
  const Netlist net = counter_reach(3, 5, false).net;
  const std::string path = ::testing::TempDir() + "/refbmc_aiger_test.aag";
  write_aiger_file(path, net);
  const Netlist back = read_aiger_file(path);
  EXPECT_EQ(back.num_latches(), net.num_latches());
  EXPECT_THROW(read_aiger_file("/no/such/file.aag"), std::invalid_argument);
}

}  // namespace
}  // namespace refbmc::model
