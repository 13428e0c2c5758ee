// ResultCache semantics: hits are verbatim copies, capacity is LRU, and
// verdict-free results never poison the memo.
#include <gtest/gtest.h>

#include "model/benchgen.hpp"
#include "service/result_cache.hpp"

namespace refbmc::service {
namespace {

CacheKey key_of(std::uint64_t n) {
  CacheKey k;
  k.netlist_hash = 0x1000 + n;
  k.bad_index = 0;
  k.max_depth = 20;
  k.config = 0xc0ffee;
  return k;
}

api::CheckResult done_result(int depth) {
  api::CheckResult r;
  r.status = api::CheckResult::Status::CounterexampleFound;
  r.counterexample_depth = depth;
  r.last_completed_depth = depth;
  r.winner_policy = "dynamic";
  r.wall_time_sec = 0.25;
  bmc::DepthStats d;
  d.depth = depth;
  d.decisions = 42;
  d.propagations = 99;
  r.per_depth.push_back(d);
  return r;
}

TEST(ResultCacheTest, HitReturnsVerbatimCopyMarkedFromCache) {
  ResultCache cache(4);
  const CacheKey k = key_of(1);
  EXPECT_FALSE(cache.lookup(k).has_value());
  EXPECT_EQ(cache.misses(), 1u);

  cache.insert(k, done_result(7));
  const auto hit = cache.lookup(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_TRUE(hit->from_cache);
  EXPECT_EQ(hit->status, api::CheckResult::Status::CounterexampleFound);
  EXPECT_EQ(hit->counterexample_depth, 7);
  EXPECT_EQ(hit->winner_policy, "dynamic");
  EXPECT_EQ(hit->wall_time_sec, 0.25);
  ASSERT_EQ(hit->per_depth.size(), 1u);
  EXPECT_EQ(hit->per_depth[0].decisions, 42u);
  EXPECT_EQ(hit->total_decisions(), 42u);
}

TEST(ResultCacheTest, KeyComponentsAreAllDiscriminating) {
  ResultCache cache(8);
  cache.insert(key_of(1), done_result(3));
  for (CacheKey k : {key_of(1), key_of(1), key_of(1)}) {
    // Each perturbed component must miss.
    CacheKey bad = k;
    bad.bad_index = 1;
    EXPECT_FALSE(cache.lookup(bad).has_value());
    CacheKey depth = k;
    depth.max_depth = 21;
    EXPECT_FALSE(cache.lookup(depth).has_value());
    CacheKey config = k;
    config.config ^= 1;
    EXPECT_FALSE(cache.lookup(config).has_value());
  }
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.insert(key_of(1), done_result(1));
  cache.insert(key_of(2), done_result(2));
  ASSERT_TRUE(cache.lookup(key_of(1)).has_value());  // promote 1 over 2

  cache.insert(key_of(3), done_result(3));  // evicts 2, the LRU
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(2)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(3)).has_value());
}

TEST(ResultCacheTest, ReinsertRefreshesInsteadOfDuplicating) {
  ResultCache cache(4);
  cache.insert(key_of(1), done_result(3));
  cache.insert(key_of(1), done_result(9));
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.lookup(key_of(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->counterexample_depth, 9);
}

TEST(ResultCacheTest, VerdictFreeResultsAreNotCached) {
  // A ResourceLimit result (cancelled / deadline / budget) could do
  // better on a rerun; caching it would pin the failure.
  ResultCache cache(4);
  api::CheckResult limited;
  limited.status = api::CheckResult::Status::ResourceLimit;
  cache.insert(key_of(1), limited);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
}

TEST(ResultCacheTest, ZeroCapacityNeverStores) {
  ResultCache cache(0);
  cache.insert(key_of(1), done_result(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
}

TEST(ResultCacheTest, RequestKeyReflectsModelPropertyDepthAndConfig) {
  api::CheckRequest request;
  request.net = model::fifo_buggy(4).net;
  const CacheKey base = cache_key(request);

  api::CheckRequest same;
  same.net = model::fifo_buggy(4).net;
  same.name = "a different label";  // labels must not affect identity
  EXPECT_EQ(cache_key(same), base);

  api::CheckRequest other_model = request;
  other_model.net = model::arbiter_buggy(6).net;
  EXPECT_NE(cache_key(other_model), base);

  api::CheckRequest other_bad = request;
  other_bad.bad_index = 1;
  EXPECT_NE(cache_key(other_bad), base);

  api::CheckRequest deeper = request;
  deeper.options.max_depth(request.options.max_depth() + 1);
  EXPECT_NE(cache_key(deeper), base);

  api::CheckRequest other_config = request;
  other_config.options.share_lbd(7);
  EXPECT_NE(cache_key(other_config), base);
}

}  // namespace
}  // namespace refbmc::service
