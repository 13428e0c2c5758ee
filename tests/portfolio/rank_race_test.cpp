// The refined ordering inside a race: each entrant refines its own
// decision order from its own unsat cores (the paper's loop, §3.2–3.3),
// and nothing about the order is exchanged between entrants.  A
// core-ranking entrant adds one core per UNSAT depth it completes, and
// api::check reports the race's total as CheckResult::ranks_published.
#include <cstdint>
#include <mutex>

#include <gtest/gtest.h>

#include "api/refbmc.hpp"
#include "model/benchgen.hpp"

namespace refbmc::api {
namespace {

TEST(RankRaceTest, CoreRankingEntrantsActuallyPublish) {
  // A safe instance both entrants grind through depth by depth: each
  // core-ranking policy adds one core per UNSAT depth it finishes,
  // whatever its rival does, and the race total is the sum over both.
  const model::Benchmark bm = model::needle(6, 6, 40, 50);
  CheckRequest request;
  request.net = bm.net;
  request.options.policies({"static", "dynamic"})
      .max_depth(bm.suggested_bound);

  // on_depth fires for every depth of every entrant, winner and loser.
  std::mutex mu;
  std::uint64_t published = 0, unsat_depths = 0;
  CheckHooks hooks;
  hooks.on_depth = [&](const bmc::DepthStats& d) {
    const std::lock_guard<std::mutex> lock(mu);
    published += d.ranks_published;
    const bool unsat = d.result == sat::Result::Unsat;
    unsat_depths += unsat ? 1 : 0;
    EXPECT_EQ(d.ranks_published, unsat ? 1u : 0u) << "depth " << d.depth;
  };

  const CheckResult result = check(request, hooks);
  ASSERT_EQ(result.status, CheckResult::Status::BoundReached);
  EXPECT_GT(published, 0u);
  EXPECT_EQ(published, unsat_depths);
  EXPECT_EQ(result.ranks_published, published);
  EXPECT_EQ(result.rank_refreshes, 0u);
}

}  // namespace
}  // namespace refbmc::api
