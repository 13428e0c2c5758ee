// Bit-identity of the SAT search: an FNV-64 of every depth's search
// counters, pinned as constants.
//
// For each model, a single-entrant BmcEngine runs depths 0..bound in a
// scratch and in an incremental session under the dynamic, static and
// evsids orderings (preprocessing and the assumption savepoint at their
// CLI defaults).  One hash per (model, session,
// policy) covers each depth's result, decisions, propagations, binary
// propagations, blocker skips, conflicts and unsat-core size (clauses
// and variables), plus the run's status and counterexample depth.  A
// change to how fast the solver searches leaves every constant alone;
// a change to what it decides, propagates, learns or reports as a core
// moves one.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "bmc/engine.hpp"
#include "model/benchgen.hpp"

namespace refbmc::bmc {
namespace {

struct Fnv64 {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

constexpr std::array<OrderingPolicy, 3> kPolicies{
    OrderingPolicy::Dynamic, OrderingPolicy::Static, OrderingPolicy::Evsids};

std::uint64_t search_hash(const model::Benchmark& bm, bool incremental,
                          OrderingPolicy policy) {
  EngineConfig cfg;
  cfg.policy = policy;
  cfg.incremental = incremental;
  cfg.max_depth = bm.suggested_bound;
  cfg.preprocess.enabled = true;
  cfg.solver.assumption_savepoint = true;
  const BmcResult r = BmcEngine(bm.net, cfg).run();
  Fnv64 h;
  h.add(static_cast<std::uint64_t>(r.status));
  h.add(static_cast<std::uint64_t>(r.counterexample_depth + 1));
  h.add(r.per_depth.size());
  for (const DepthStats& d : r.per_depth) {
    h.add(static_cast<std::uint64_t>(d.depth));
    h.add(static_cast<std::uint64_t>(d.result));
    h.add(d.decisions);
    h.add(d.propagations);
    h.add(d.binary_propagations);
    h.add(d.blocker_skips);
    h.add(d.conflicts);
    h.add(d.core_clauses);
    h.add(d.core_vars);
  }
  return h.h;
}

std::vector<model::Benchmark> golden_models() {
  return {model::with_distractor(model::fifo_safe(3), 2, 1),
          model::with_distractor(model::fifo_safe(4), 2, 1),
          model::with_distractor(model::fifo_buggy(4), 2, 1),
          model::with_distractor(model::counter_reach(8, 12, true), 2, 1),
          model::with_distractor(model::accumulator_reach(12, 3, 70), 2, 1),
          model::with_distractor(model::arbiter_safe(6), 2, 1),
          model::with_distractor(model::arbiter_safe(7), 2, 1),
          model::with_distractor(model::needle(8, 8, 18, 9), 2, 1),
          model::with_distractor(model::peterson_safe(), 2, 1),
          model::counter_reach(8, 24, true)};
}

/// Recorded before the solver's inner loops were specialised (the
/// scratch column again once scratch sessions replayed the per-depth
/// deltas, and the peterson+d2 and cnt8e_t24 scratch dynamic/static
/// entries once the solver lost restart-boundary clause vivification);
/// a faster solver must reproduce every constant.
struct Golden {
  const char* name;
  std::array<std::uint64_t, 3> scratch;      // dynamic, static, evsids
  std::array<std::uint64_t, 3> incremental;  // dynamic, static, evsids
};

const std::vector<Golden>& golden_table() {
  static const std::vector<Golden> table{
      {"fifo3+d2",
       /*scratch*/ {0xb1456bfac350388dull, 0x36d12e2bc98eaa6full,
                    0x619fc54c60bbaf58ull},
       /*incremental*/ {0x1d5da4b7401b7643ull, 0x1d5da4b7401b7643ull,
                        0x6477737b001d88afull}},
      {"fifo4+d2",
       /*scratch*/ {0xed7fc67d8aa20164ull, 0xa43cc66e47ab928eull,
                    0x767d25fe6e84b5f7ull},
       /*incremental*/ {0x07cdc583e8af3d18ull, 0x9a9e13e8e0900808ull,
                        0x8da2b9e76651f5f4ull}},
      {"fifobug4+d2",
       /*scratch*/ {0x61667fa3125b75bbull, 0xf40ca59490495809ull,
                    0x8f847888321505e4ull},
       /*incremental*/ {0x0769286c91a9ac6bull, 0xdf65c06ed50d28b4ull,
                        0xcf7d3cc970af3728ull}},
      {"cnt8e_t12+d2",
       /*scratch*/ {0x89116cfdebf2ddbbull, 0x89116cfdebf2ddbbull,
                    0x112f2b3cdee919e6ull},
       /*incremental*/ {0x08731a3130e0aef5ull, 0x0ee1dd9dcb3517e5ull,
                        0x7532109ffe2eac7eull}},
      {"acc12x3_t70+d2",
       /*scratch*/ {0xcb287506f596ec85ull, 0xc4e0a3ed3ce85186ull,
                    0x464e8e9677dd4670ull},
       /*incremental*/ {0x9e23082a57d07584ull, 0x1a6a49f22adedb1cull,
                        0xa6d7ada0d74ac425ull}},
      {"arb6+d2",
       /*scratch*/ {0x100bc969d0a90277ull, 0x8272b002eda21125ull,
                    0xdae46e0982315fc7ull},
       /*incremental*/ {0x9945214307fc558cull, 0xaf2e920110f376d8ull,
                        0xecd618e2dff982ceull}},
      {"arb7+d2",
       /*scratch*/ {0x7f850e77942d7ccdull, 0x8f3465453885aab9ull,
                    0x1e54ce698bdc20f1ull},
       /*incremental*/ {0x3ddb65e206bc3ae0ull, 0x2ecad10ea77b8fedull,
                        0x0d5d019672fcafa8ull}},
      {"needle8_8_A18_B9+d2",
       /*scratch*/ {0xab7d58433ec9f9e1ull, 0xab7d58433ec9f9e1ull,
                    0x94314bf6fdc8c4e6ull},
       /*incremental*/ {0x9e7f673f84af904dull, 0x9e7f673f84af904dull,
                        0x88fdb2a7023a9b1cull}},
      {"peterson+d2",
       /*scratch*/ {0xc312c645bdf46920ull, 0xd2ef751fbeb47764ull,
                    0xd6ed342c97737f88ull},
       /*incremental*/ {0x0aa31bbb855820eeull, 0xe5da864bf5f77819ull,
                        0x0be46f6a8495fb98ull}},
      {"cnt8e_t24",
       /*scratch*/ {0xb27af544a9b75c8full, 0x523ac4e2e0883fbfull,
                    0x3b9cf79594dbf903ull},
       /*incremental*/ {0x9bb49ad61cf6a719ull, 0x4c5f7dbbee0d31c3ull,
                        0x0f88f6cee4d23fd4ull}},
  };
  return table;
}

TEST(SearchGoldenTest, EveryRunMatchesTheRecordedSearch) {
  const std::vector<model::Benchmark> models = golden_models();
  const std::vector<Golden>& table = golden_table();
  ASSERT_EQ(models.size(), table.size());
  for (std::size_t m = 0; m < models.size(); ++m) {
    const model::Benchmark& bm = models[m];
    ASSERT_EQ(bm.name, table[m].name);
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      const char* policy = to_string(kPolicies[p]);
      EXPECT_EQ(search_hash(bm, false, kPolicies[p]), table[m].scratch[p])
          << bm.name << " scratch " << policy;
      EXPECT_EQ(search_hash(bm, true, kPolicies[p]), table[m].incremental[p])
          << bm.name << " incremental " << policy;
    }
  }
}

}  // namespace
}  // namespace refbmc::bmc
