// SharedClausePool / PoolEndpoint unit tests: ring semantics, the
// export/import balance, the soundness filter (unmapped variables), the
// parked-clause retry, and the cooperative close epoch.  All
// single-threaded and deterministic — the pool's job is to make the
// multi-threaded case boring.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "portfolio/clause_pool.hpp"

namespace refbmc::portfolio {
namespace {

using sat::Lit;
using sat::Var;

Lit pos(Var v) { return Lit::make(v); }
Lit neg(Var v) { return Lit::make(v, true); }

/// Identity tape->solver map over n variables.
std::vector<Var> identity_map(int n) {
  std::vector<Var> m(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) m[static_cast<std::size_t>(i)] = i;
  return m;
}

/// std::span has no initializer_list constructor until C++26; these
/// wrappers keep the call sites readable.
void publish(SharedClausePool& pool, std::initializer_list<Lit> lits,
             std::uint32_t lbd, int producer) {
  const std::vector<Lit> v(lits);
  pool.publish(v, lbd, producer);
}
void export_clause(PoolEndpoint& e, std::initializer_list<Lit> lits,
                   std::uint32_t lbd) {
  const std::vector<Lit> v(lits);
  e.export_clause(v, lbd);
}

/// Collects whatever an endpoint imports.
struct Collector final : sat::ClauseExchange::ImportSink {
  std::vector<std::vector<Lit>> clauses;
  std::vector<std::uint32_t> lbds;
  void add(std::span<const Lit> lits, std::uint32_t lbd) override {
    clauses.emplace_back(lits.begin(), lits.end());
    lbds.push_back(lbd);
  }
};

TEST(SharedClausePoolTest, PublishFetchRoundTrip) {
  SharedClausePool pool(16);
  const std::vector<Lit> c1{pos(0), neg(1)};
  const std::vector<Lit> c2{neg(2)};
  pool.publish(c1, 2, /*producer=*/0);
  pool.publish(c2, 1, /*producer=*/0);
  EXPECT_EQ(pool.published(), 2u);

  std::uint64_t cursor = 0;
  std::vector<SharedClausePool::PoolClause> got;
  EXPECT_TRUE(pool.has_new(cursor));
  EXPECT_EQ(pool.fetch(cursor, /*consumer=*/1, got), 0u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].lits, c1);
  EXPECT_EQ(got[0].lbd, 2u);
  EXPECT_EQ(got[1].lits, c2);
  EXPECT_EQ(cursor, 2u);
  EXPECT_FALSE(pool.has_new(cursor));
  // delivered() counts solver hand-offs by the endpoints, not raw
  // fetches — a bare fetch leaves it untouched.
  EXPECT_EQ(pool.delivered(), 0u);
}

TEST(SharedClausePoolTest, ProducersNeverGetTheirOwnClausesBack) {
  SharedClausePool pool(8);
  publish(pool, {pos(0)}, 1, /*producer=*/0);
  publish(pool, {pos(1)}, 1, /*producer=*/1);

  std::uint64_t cursor = 0;
  std::vector<SharedClausePool::PoolClause> got;
  pool.fetch(cursor, /*consumer=*/0, got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].producer, 1);
}

TEST(SharedClausePoolTest, RingOverwritesOldestAndReportsTheLoss) {
  SharedClausePool pool(2);
  publish(pool, {pos(0)}, 1, 0);
  publish(pool, {pos(1)}, 1, 0);
  publish(pool, {pos(2)}, 1, 0);  // evicts pos(0)

  std::uint64_t cursor = 0;
  std::vector<SharedClausePool::PoolClause> got;
  const std::uint64_t lost = pool.fetch(cursor, /*consumer=*/1, got);
  EXPECT_EQ(lost, 1u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].lits, std::vector<Lit>{pos(1)});
  EXPECT_EQ(got[1].lits, std::vector<Lit>{pos(2)});
  EXPECT_EQ(pool.overwritten(), 1u);
}

TEST(SharedClausePoolTest, CloseStopsPublishing) {
  SharedClausePool pool(8);
  publish(pool, {pos(0)}, 1, 0);
  pool.close();
  EXPECT_TRUE(pool.closed());
  publish(pool, {pos(1)}, 1, 0);  // dropped: the race is decided
  EXPECT_EQ(pool.published(), 1u);
}

TEST(PoolEndpointTest, ExportedAndImportedCountersBalance) {
  // Two endpoints over the same 4-variable tape: everything A exports is
  // exactly what B imports, and vice versa — the balance invariant
  // ShareRaceTest.ConflictHeavyRaceActuallyExchangesClauses checks end to
  // end.
  SharedClausePool pool(64);
  PoolEndpoint a(pool, /*producer=*/0);
  PoolEndpoint b(pool, /*producer=*/1);
  a.sync_vars(identity_map(4));
  b.sync_vars(identity_map(4));

  export_clause(a, {pos(0), neg(1)}, 2);
  export_clause(a, {pos(2)}, 1);
  export_clause(b, {neg(3)}, 1);

  Collector into_b;
  b.import_clauses(into_b);
  Collector into_a;
  a.import_clauses(into_a);

  EXPECT_EQ(a.published(), 2u);
  EXPECT_EQ(b.published(), 1u);
  EXPECT_EQ(b.imported(), 2u);
  EXPECT_EQ(a.imported(), 1u);
  EXPECT_EQ(pool.published(), a.published() + b.published());
  EXPECT_EQ(pool.delivered(), a.imported() + b.imported());
  ASSERT_EQ(into_b.clauses.size(), 2u);
  EXPECT_EQ(into_b.clauses[0], (std::vector<Lit>{pos(0), neg(1)}));
  ASSERT_EQ(into_a.clauses.size(), 1u);
  EXPECT_EQ(into_a.clauses[0], std::vector<Lit>{neg(3)});

  // Nothing new: import again is a no-op (and has_pending is false).
  EXPECT_FALSE(a.has_pending());
  a.import_clauses(into_a);
  EXPECT_EQ(into_a.clauses.size(), 1u);
}

TEST(PoolEndpointTest, TranslatesBetweenSolverSpaces) {
  // Entrant A numbers tape vars {0,1,2} as solver vars {5,6,7}; entrant B
  // as {1,0,3}.  A clause crosses the pool in tape space and lands in
  // B's numbering.
  SharedClausePool pool(8);
  PoolEndpoint a(pool, 0);
  PoolEndpoint b(pool, 1);
  a.sync_vars({5, 6, 7});
  b.sync_vars({1, 0, 3});

  export_clause(a, {Lit::make(5), Lit::make(7, true)}, 2);  // tape: 0, ~2
  Collector into_b;
  b.import_clauses(into_b);
  ASSERT_EQ(into_b.clauses.size(), 1u);
  EXPECT_EQ(into_b.clauses[0],
            (std::vector<Lit>{Lit::make(1), Lit::make(3, true)}));
}

TEST(PoolEndpointTest, RefusesClausesOverUnmappedVariables) {
  // Solver var 9 has no tape counterpart (an activation guard): the
  // clause is not implied by the shared formula and must not cross.
  SharedClausePool pool(8);
  PoolEndpoint a(pool, 0);
  a.sync_vars({0, 1, 2});
  export_clause(a, {pos(0), Lit::make(9, true)}, 2);
  EXPECT_EQ(a.published(), 0u);
  EXPECT_EQ(a.rejected_unmapped(), 1u);
  EXPECT_EQ(pool.published(), 0u);
}

TEST(PoolEndpointTest, ParksClausesAheadOfReplayAndRetries) {
  // B has replayed only 2 tape vars; a clause over tape var 3 parks until
  // sync_vars extends the map, then imports on the next drain.
  SharedClausePool pool(8);
  PoolEndpoint a(pool, 0);
  PoolEndpoint b(pool, 1);
  a.sync_vars(identity_map(5));
  b.sync_vars(identity_map(2));

  export_clause(a, {pos(1), neg(3)}, 2);
  Collector into_b;
  b.import_clauses(into_b);
  EXPECT_TRUE(into_b.clauses.empty());
  EXPECT_FALSE(b.has_pending());          // parked, and quiet until a
                                          // replay grows the map
  EXPECT_EQ(pool.delivered(), 0u);        // ...and not counted delivered

  b.sync_vars(identity_map(4));
  EXPECT_TRUE(b.has_pending());           // now a retry can succeed
  b.import_clauses(into_b);
  ASSERT_EQ(into_b.clauses.size(), 1u);
  EXPECT_EQ(into_b.clauses[0], (std::vector<Lit>{pos(1), neg(3)}));
  EXPECT_EQ(b.imported(), 1u);
  EXPECT_EQ(pool.delivered(), 1u);
}

TEST(PoolEndpointTest, RebindRewindsTheCursorForAFreshSolver) {
  // Scratch discipline: depth k+1's fresh solver re-imports the ring's
  // live lemmas from the start through the same endpoint.
  SharedClausePool pool(8);
  PoolEndpoint a(pool, 0);
  PoolEndpoint b(pool, 1);
  a.sync_vars(identity_map(3));
  export_clause(a, {pos(0), pos(1)}, 2);

  b.sync_vars(identity_map(3));
  Collector first;
  b.import_clauses(first);
  ASSERT_EQ(first.clauses.size(), 1u);

  b.rebind();  // new solver, same tape
  b.sync_vars(identity_map(3));
  Collector second;
  b.import_clauses(second);
  ASSERT_EQ(second.clauses.size(), 1u);
  EXPECT_EQ(second.clauses[0], first.clauses[0]);
}

TEST(PoolEndpointTest, RebindRewindIsNotCountedAsOverwriteLoss) {
  // Ring of 2: A publishes c0, c1 (B reads both), then c2 evicts c0.
  // B's post-rebind fetch rewinds past the evicted slot deliberately —
  // only a consumer that never saw c0 counts it as lost.
  SharedClausePool pool(2);
  PoolEndpoint a(pool, 0);
  PoolEndpoint b(pool, 1);
  a.sync_vars(identity_map(4));
  b.sync_vars(identity_map(4));

  export_clause(a, {pos(0)}, 1);
  export_clause(a, {pos(1)}, 1);
  Collector got;
  b.import_clauses(got);
  ASSERT_EQ(got.clauses.size(), 2u);

  export_clause(a, {pos(2)}, 1);  // evicts the pos(0) entry
  b.rebind();
  b.sync_vars(identity_map(4));
  b.import_clauses(got);  // re-reads pos(1), reads pos(2)
  ASSERT_EQ(got.clauses.size(), 4u);
  EXPECT_EQ(pool.overwritten(), 0u);  // b saw every entry at least once

  // A genuinely late consumer does count the evicted entry as lost.
  PoolEndpoint late(pool, 2);
  late.sync_vars(identity_map(4));
  late.import_clauses(got);
  EXPECT_EQ(pool.overwritten(), 1u);
}

TEST(PoolEndpointTest, ParkedClausesAreNotRetriedUntilTheMapGrows) {
  // A parked clause can only become translatable after a replay extends
  // the map; until then the endpoint must not report pending work (the
  // per-restart import fast path stays a single pool peek).
  SharedClausePool pool(8);
  PoolEndpoint a(pool, 0);
  PoolEndpoint b(pool, 1);
  a.sync_vars(identity_map(5));
  b.sync_vars(identity_map(2));

  export_clause(a, {pos(0), neg(4)}, 2);
  Collector into_b;
  b.import_clauses(into_b);          // fetches, parks
  EXPECT_TRUE(into_b.clauses.empty());
  EXPECT_FALSE(b.has_pending());     // same map: nothing can change
  b.sync_vars(identity_map(5));
  EXPECT_TRUE(b.has_pending());      // map grew: retry is worthwhile now
  b.import_clauses(into_b);
  ASSERT_EQ(into_b.clauses.size(), 1u);
}

}  // namespace
}  // namespace refbmc::portfolio
