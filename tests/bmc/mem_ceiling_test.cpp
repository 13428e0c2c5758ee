// Per-depth memory ceilings, engine to service.
//
//   * a tiny ceiling turns into a clean Status::ResourceLimit with
//     mem_limit_hit set and the footprint stats populated — never a
//     crash or a wrong verdict;
//   * ceiling 0 is bit-identical to an unbounded run (accounting is
//     always on, so the ceiling check is the only branch that differs);
//   * the per-depth DepthStats carry the peak / arena / tape bytes the
//     bench layer serialises;
//   * a JobServer classifies a ceiling breach as the typed
//     MemLimitExceeded state, distinct from deadline eviction.
#include <cstdint>

#include <gtest/gtest.h>

#include "bmc/engine.hpp"
#include "model/benchgen.hpp"
#include "service/job_server.hpp"

namespace refbmc::bmc {
namespace {

TEST(MemCeilingTest, TinyCeilingStopsCleanlyWithPopulatedStats) {
  // 16 KiB cannot hold even the first frames' clauses, so the run must
  // end at an early checkpoint — with the accounting that proves why.
  const model::Benchmark bm = model::lfsr_safe(10);
  EngineConfig cfg;
  cfg.max_depth = 30;
  cfg.mem_ceiling_bytes = 16 * 1024;
  BmcEngine engine(bm.net, cfg);
  const BmcResult res = engine.run();
  EXPECT_EQ(res.status, BmcResult::Status::ResourceLimit);
  EXPECT_TRUE(res.mem_limit_hit);
  EXPECT_GT(res.peak_mem_bytes, cfg.mem_ceiling_bytes);
  // Whatever depths completed before the breach carry their footprint.
  for (const auto& d : res.per_depth) {
    EXPECT_GT(d.peak_bytes, 0u) << "depth " << d.depth;
    EXPECT_GT(d.tape_bytes, 0u) << "depth " << d.depth;
  }
}

TEST(MemCeilingTest, ZeroCeilingIsBitIdenticalToUnlimited) {
  // Accounting always runs; only the breach branch is gated.  A zero
  // ceiling and a never-reachable one must therefore produce the same
  // search, decision for decision.
  const model::Benchmark bm = model::needle(6, 6, 40, 50);
  EngineConfig base;
  base.max_depth = bm.suggested_bound;

  EngineConfig zero = base;
  zero.mem_ceiling_bytes = 0;
  EngineConfig huge = base;
  huge.mem_ceiling_bytes = 1ull << 40;

  const BmcResult a = BmcEngine(bm.net, zero).run();
  const BmcResult b = BmcEngine(bm.net, huge).run();
  EXPECT_FALSE(a.mem_limit_hit);
  EXPECT_FALSE(b.mem_limit_hit);
  ASSERT_EQ(a.status, b.status);
  ASSERT_EQ(a.per_depth.size(), b.per_depth.size());
  for (std::size_t k = 0; k < a.per_depth.size(); ++k) {
    EXPECT_EQ(a.per_depth[k].decisions, b.per_depth[k].decisions)
        << "depth " << k;
    EXPECT_EQ(a.per_depth[k].propagations, b.per_depth[k].propagations)
        << "depth " << k;
    EXPECT_EQ(a.per_depth[k].conflicts, b.per_depth[k].conflicts)
        << "depth " << k;
    // Identical formula state implies identical footprint accounting.
    EXPECT_EQ(a.per_depth[k].arena_bytes, b.per_depth[k].arena_bytes)
        << "depth " << k;
    EXPECT_EQ(a.per_depth[k].tape_bytes, b.per_depth[k].tape_bytes)
        << "depth " << k;
  }
  EXPECT_EQ(a.peak_mem_bytes, b.peak_mem_bytes);
  EXPECT_GT(a.peak_mem_bytes, 0u);
}

TEST(MemCeilingTest, UnboundedRunStillReportsFootprint) {
  // No ceiling at all: the per-depth series must still carry the bytes
  // (the bench harness serialises them unconditionally).
  const model::Benchmark bm = model::gray_safe(5);
  EngineConfig cfg;
  cfg.max_depth = 8;
  const BmcResult res = BmcEngine(bm.net, cfg).run();
  ASSERT_EQ(res.status, BmcResult::Status::BoundReached);
  ASSERT_FALSE(res.per_depth.empty());
  for (const auto& d : res.per_depth) {
    EXPECT_GT(d.peak_bytes, 0u);
    EXPECT_GT(d.arena_bytes, 0u);
    EXPECT_GT(d.tape_bytes, 0u);
  }
  EXPECT_FALSE(res.mem_limit_hit);
}

TEST(MemCeilingTest, ServerClassifiesBreachAsMemLimitExceeded) {
  // The serving layer's typed rejection: a ceiling breach must surface
  // as MemLimitExceeded (resubmit with more memory), not as a deadline
  // eviction (resubmit with more time).
  // A safe model whose INCREMENTAL solve accumulates ~3 MB of arena +
  // watcher heap by depth 40 (scratch solvers release per depth and
  // would stay under the MiB-granularity ceiling).
  const model::Benchmark bm =
      model::with_distractor(model::lfsr_safe(12), 48, 7);
  api::CheckRequest req;
  req.net = bm.net;
  req.name = "tiny-ceiling";
  req.options.max_depth(40).incremental(true).mem_ceiling_mb(1);

  service::JobServer server;
  const auto outcome = server.submit(std::move(req));
  ASSERT_TRUE(outcome.accepted);
  const auto status = server.wait(outcome.id, /*timeout_sec=*/120.0);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, service::JobState::MemLimitExceeded);
  EXPECT_TRUE(status->result.mem_limit_hit);
  EXPECT_GT(status->result.peak_mem_bytes, 1024u * 1024u);
  EXPECT_EQ(server.stats().mem_limit_stops, 1u);
}

}  // namespace
}  // namespace refbmc::bmc
