#include <gtest/gtest.h>

#include "bmc/engine.hpp"
#include "bmc/trace.hpp"
#include "model/benchgen.hpp"

namespace refbmc::bmc {
namespace {

Trace find_trace(const model::Benchmark& bm) {
  EngineConfig cfg;
  cfg.policy = OrderingPolicy::Dynamic;
  cfg.max_depth = bm.suggested_bound;
  const BmcResult r = BmcEngine(bm.net, cfg).run();
  EXPECT_EQ(r.status, BmcResult::Status::CounterexampleFound);
  return *r.counterexample;
}

std::size_t ones(const Trace& t) {
  std::size_t n = 0;
  for (const auto& frame : t.inputs)
    for (const bool b : frame) n += b ? 1 : 0;
  for (const bool b : t.initial_latches) n += b ? 1 : 0;
  return n;
}

TEST(TraceMinimizeTest, ResultStillValidates) {
  for (const auto& bm :
       {model::fifo_buggy(3), model::arbiter_buggy(4),
        model::with_distractor(model::fifo_buggy(3), 8, 3)}) {
    SCOPED_TRACE(bm.name);
    const Trace original = find_trace(bm);
    const Trace minimized = minimize_trace(bm.net, original);
    EXPECT_TRUE(validate_trace(bm.net, minimized));
    EXPECT_LE(ones(minimized), ones(original));
  }
}

TEST(TraceMinimizeTest, DistractorInputsZeroedOut) {
  // The distractor guard needs exactly one input bit at the final frame;
  // everything else in the mixing network is removable.
  const auto bm = model::with_distractor(model::fifo_buggy(3), 8, 3);
  const Trace minimized = minimize_trace(bm.net, find_trace(bm));
  // Count ones on the distractor inputs (named dmix0/dmix1); they serve
  // no purpose in the violation.
  const auto& ins = bm.net.inputs();
  std::size_t distractor_ones = 0;
  for (const auto& frame : minimized.inputs)
    for (std::size_t i = 0; i < ins.size(); ++i)
      if (frame[i] && bm.net.name(ins[i]).rfind("dmix", 0) == 0)
        ++distractor_ones;
  EXPECT_EQ(distractor_ones, 0u);
}

TEST(TraceMinimizeTest, EssentialBitsSurvive) {
  // The buggy FIFO overflow needs `push` high on every frame but the
  // last; minimization must keep those.
  const auto bm = model::fifo_buggy(3);
  const Trace minimized = minimize_trace(bm.net, find_trace(bm));
  const auto& ins = bm.net.inputs();
  std::size_t push_idx = 0;
  for (std::size_t i = 0; i < ins.size(); ++i)
    if (bm.net.name(ins[i]) == "push") push_idx = i;
  int push_count = 0;
  for (const auto& frame : minimized.inputs)
    push_count += frame[push_idx] ? 1 : 0;
  EXPECT_GE(push_count, bm.expect_depth);  // cap+1 pushes needed
}

TEST(TraceMinimizeTest, FreeInitialLatchesCleared) {
  // Model with an irrelevant uninitialised latch: its value must be
  // minimized to 0.
  model::Netlist net;
  const model::Signal junk = net.add_latch(sat::l_Undef, "junk");
  net.set_next(junk, junk);
  const model::Signal trigger = net.add_latch(sat::l_Undef, "trigger");
  net.set_next(trigger, trigger);
  net.add_bad(trigger, "trigger_high");
  Trace t;
  t.depth = 0;
  t.inputs = {{}};
  t.initial_latches = {true, true};  // junk=1 (removable), trigger=1 (not)
  ASSERT_TRUE(validate_trace(net, t));
  const Trace m = minimize_trace(net, t);
  EXPECT_FALSE(m.initial_latches[0]);
  EXPECT_TRUE(m.initial_latches[1]);
}

TEST(TraceMinimizeTest, InvalidTraceRejected) {
  const auto bm = model::fifo_buggy(3);
  Trace bogus;
  bogus.depth = 1;
  bogus.inputs = {{false, false}, {false, false}};
  bogus.initial_latches = std::vector<bool>(bm.net.num_latches(), false);
  EXPECT_THROW(minimize_trace(bm.net, bogus), std::invalid_argument);
}

}  // namespace
}  // namespace refbmc::bmc
