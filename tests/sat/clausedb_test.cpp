// The ClauseDB layer: id space, LBD computation, tiered reduceDB with
// glue protection, strengthening with binary-watch migration, and arena
// compaction with reference patching.
#include "sat/clausedb.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "sat/solver.hpp"

namespace refbmc::sat {
namespace {

Lit pos(Var v) { return Lit::make(v); }
Lit neg(Var v) { return Lit::make(v, true); }

struct Core {
  Trail trail;
  Propagator prop;
  ClauseDB db{/*clause_decay=*/0.999, /*glue_lbd=*/2, /*tier_lbd=*/6};
  SolverStats stats;

  void vars(int n) {
    for (int i = 0; i < n; ++i) {
      trail.new_var();
      prop.new_var();
    }
  }
  ClauseRef learned(std::initializer_list<Lit> lits, std::uint32_t lbd) {
    const ClauseId id = db.register_learned();
    const ClauseRef cref =
        db.alloc_learned(std::vector<Lit>(lits), id, lbd, /*managed=*/true);
    prop.attach(db.arena(), cref);
    return cref;
  }
  /// Grows the arena with an unwatched filler clause so that the waste a
  /// test creates stays below the compaction threshold — the ClauseRefs
  /// under test must stay valid for their assertions.
  void pad_arena(std::uint32_t words) {
    db.alloc_original(std::vector<Lit>(words, pos(0)), /*id=*/9999);
  }
};

TEST(ClauseDbTest, IdSpaceTracksOriginalsAndLearned) {
  ClauseDB db(0.999, 2, 6);
  const std::vector<Lit> c1{pos(0), pos(1)};
  const ClauseId id1 = db.register_original(c1, /*counted=*/true);
  const ClauseId id2 = db.register_learned();
  const ClauseId id3 = db.register_original({pos(2)}, /*counted=*/true);
  EXPECT_EQ(id1, 1u);
  EXPECT_EQ(id2, 2u);
  EXPECT_EQ(id3, 3u);
  EXPECT_TRUE(db.is_original_clause(id1));
  EXPECT_FALSE(db.is_original_clause(id2));
  EXPECT_TRUE(db.is_original_clause(id3));
  EXPECT_EQ(test::as_vector(db.original_clause(id1)), c1);
  EXPECT_EQ(db.num_original_clauses(), 2u);
  EXPECT_EQ(db.num_original_literals(), 3u);
  EXPECT_EQ(db.original_ids(), (std::vector<ClauseId>{1, 3}));
}

TEST(ClauseDbTest, TautologiesKeepTheirIdButNotTheirLiterals) {
  ClauseDB db(0.999, 2, 6);
  db.register_original({pos(0), neg(0)}, /*counted=*/false);
  EXPECT_EQ(db.num_original_literals(), 0u);
  EXPECT_EQ(db.num_original_clauses(), 1u);
}

TEST(ClauseDbTest, ComputeLbdCountsDistinctNonRootLevels) {
  Core c;
  c.vars(5);
  c.trail.assign(pos(0), kClauseRefUndef);  // level 0: not counted
  c.trail.new_decision_level();
  c.trail.assign(pos(1), kClauseRefUndef);
  c.trail.assign(pos(2), kClauseRefUndef);  // same level as 1
  c.trail.new_decision_level();
  c.trail.assign(pos(3), kClauseRefUndef);
  const std::vector<Lit> lits{neg(0), neg(1), neg(2), neg(3)};
  EXPECT_EQ(c.db.compute_lbd(lits, c.trail), 2u);
}

TEST(ClauseDbTest, AllocLearnedStoresLbdAndTracksManaged) {
  Core c;
  c.vars(4);
  const ClauseRef cref = c.learned({pos(0), pos(1), pos(2)}, 4);
  EXPECT_EQ(c.db.get(cref).lbd(), 4u);
  EXPECT_TRUE(c.db.get(cref).learnt());
  EXPECT_EQ(c.db.num_learned(), 1u);
  // Unit learned clauses stay unmanaged (never deleted).
  const ClauseId id = c.db.register_learned();
  c.db.alloc_learned({pos(3)}, id, 1, /*managed=*/false);
  EXPECT_EQ(c.db.num_learned(), 1u);
}

TEST(ClauseDbTest, UseInAnalysisOnlyLowersLbd) {
  Core c;
  c.vars(3);
  const ClauseRef cref = c.learned({pos(0), pos(1), pos(2)}, 5);
  Clause cl = c.db.get(cref);
  c.db.on_used_in_analysis(cl, 3);
  EXPECT_EQ(c.db.get(cref).lbd(), 3u);
  c.db.on_used_in_analysis(cl, 4);  // higher: keep the better tier
  EXPECT_EQ(c.db.get(cref).lbd(), 3u);
  EXPECT_GT(c.db.get(cref).activity(), 0.0f);  // bumped twice
}

TEST(ClauseDbTest, ReduceDeletesLocalTierFirst) {
  Core c;
  c.vars(12);
  c.pad_arena(200);
  // Four deletion candidates: two local-tier (lbd 9, 8), two mid-tier
  // (lbd 5, 4).  Half are deleted, worst-first: exactly the local tier.
  const ClauseRef l9 = c.learned({pos(0), pos(1), pos(2)}, 9);
  const ClauseRef l8 = c.learned({pos(3), pos(4), pos(5)}, 8);
  const ClauseRef m5 = c.learned({pos(6), pos(7), pos(8)}, 5);
  const ClauseRef m4 = c.learned({pos(9), pos(10), pos(11)}, 4);
  c.db.reduce(c.trail, c.prop, /*strengthen=*/false, c.stats);
  EXPECT_EQ(c.stats.deleted_clauses, 2u);
  EXPECT_EQ(c.db.num_learned(), 2u);
  EXPECT_TRUE(c.db.get(l9).dead());
  EXPECT_TRUE(c.db.get(l8).dead());
  EXPECT_FALSE(c.db.get(m5).dead());
  EXPECT_FALSE(c.db.get(m4).dead());
}

TEST(ClauseDbTest, GlueClausesAreNeverDeleted) {
  Core c;
  c.vars(12);
  c.pad_arena(200);
  // Two glue clauses (lbd <= 2) among two local-tier candidates: the
  // deletion target is half the learned list (two here), but the glue
  // tier is not even a candidate — the whole quota falls on the local
  // clauses and the glue counter records the protection.
  const ClauseRef g1 = c.learned({pos(0), pos(1), pos(2)}, 2);
  const ClauseRef g2 = c.learned({pos(3), pos(4), pos(5)}, 1);
  const ClauseRef l1 = c.learned({pos(6), pos(7), pos(8)}, 9);
  const ClauseRef l2 = c.learned({pos(9), pos(10), pos(11)}, 8);
  c.db.reduce(c.trail, c.prop, /*strengthen=*/false, c.stats);
  EXPECT_EQ(c.stats.glue_protected, 2u);
  EXPECT_EQ(c.stats.deleted_clauses, 2u);
  EXPECT_FALSE(c.db.get(g1).dead());
  EXPECT_FALSE(c.db.get(g2).dead());
  EXPECT_TRUE(c.db.get(l1).dead());
  EXPECT_TRUE(c.db.get(l2).dead());
}

TEST(ClauseDbTest, LowerActivityGoesFirstWithinATier) {
  Core c;
  c.vars(6);
  c.pad_arena(200);
  const ClauseRef a = c.learned({pos(0), pos(1), pos(2)}, 8);
  const ClauseRef b = c.learned({pos(3), pos(4), pos(5)}, 8);
  c.db.on_used_in_analysis(c.db.get(b), 8);  // bump b only
  c.db.reduce(c.trail, c.prop, /*strengthen=*/false, c.stats);
  EXPECT_TRUE(c.db.get(a).dead());
  EXPECT_FALSE(c.db.get(b).dead());
}

TEST(ClauseDbTest, LockedClausesSurviveReduce) {
  Core c;
  c.vars(9);
  c.pad_arena(200);
  // r is the worst clause by every tier key, but it is the reason of its
  // first literal: locked, so the deletion falls on the next-worst.
  const ClauseRef r = c.learned({pos(0), pos(1), pos(2)}, 9);
  const ClauseRef w = c.learned({pos(3), pos(4), pos(5)}, 8);
  c.learned({pos(6), pos(7), pos(8)}, 7);
  c.trail.new_decision_level();
  c.trail.assign(pos(0), r);
  c.db.reduce(c.trail, c.prop, /*strengthen=*/false, c.stats);
  EXPECT_EQ(c.stats.deleted_clauses, 1u);
  EXPECT_FALSE(c.db.get(r).dead());
  EXPECT_TRUE(c.db.get(w).dead());
}

TEST(ClauseDbTest, StrengthenDropsRootFalseTailsAndMigrates) {
  Core c;
  c.vars(4);
  c.pad_arena(200);
  // Root-level facts falsify the two tail literals of a kept clause.
  c.trail.assign(neg(2), kClauseRefUndef);
  c.trail.assign(neg(3), kClauseRefUndef);
  const ClauseRef cref = c.learned({pos(0), pos(1), pos(2), pos(3)}, 4);
  c.db.reduce(c.trail, c.prop, /*strengthen=*/true, c.stats);
  EXPECT_EQ(c.db.get(cref).size(), 2u);
  EXPECT_EQ(c.stats.strengthened_literals, 2u);
  // Shrunk to binary: watchers moved to the inline lists.
  EXPECT_EQ(c.prop.num_long_watches(neg(0)), 0u);
  EXPECT_EQ(c.prop.num_binary_watches(neg(0)), 1u);
  // The binary path now propagates it.
  c.trail.new_decision_level();
  c.trail.assign(neg(0), kClauseRefUndef);
  while (!c.trail.fully_propagated()) {
    ASSERT_EQ(c.prop.propagate(c.trail, c.db.arena(), c.stats),
              kClauseRefUndef);
  }
  EXPECT_EQ(c.trail.value(pos(1)), l_True);
  EXPECT_GT(c.stats.binary_propagations, 0u);
}

TEST(ClauseDbTest, GcPatchesWatchesReasonsAndLearnedList) {
  Core c;
  c.vars(9);
  // Enough dead space to trigger compaction: delete the local tier.
  std::vector<ClauseRef> fillers;
  for (int i = 0; i < 2; ++i)
    fillers.push_back(c.learned({pos(0), pos(1), pos(2)}, 9));
  const ClauseRef keep = c.learned({pos(3), pos(4), pos(5)}, 3);
  c.trail.new_decision_level();
  c.trail.assign(pos(3), keep);
  c.db.reduce(c.trail, c.prop, /*strengthen=*/false, c.stats);
  EXPECT_EQ(c.stats.deleted_clauses, 1u);  // half of the two fillers
  ASSERT_GT(c.stats.arena_gcs, 0u);
  // The surviving locked clause's reason reference was patched and still
  // resolves to the same literals.
  const ClauseRef moved = c.trail.reason(3);
  ASSERT_NE(moved, kClauseRefUndef);
  EXPECT_EQ(c.db.get(moved)[0], pos(3));
  EXPECT_EQ(c.db.num_learned(), 2u);  // keep + the surviving filler
}

}  // namespace
}  // namespace refbmc::sat
