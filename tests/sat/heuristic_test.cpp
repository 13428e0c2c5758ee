// The decision heuristic as the DecisionQueue runs it: the Chaff scorer
// (literal counts, halve-and-add, phase), the rank modes and the §3.3
// switch — the rank cases over either scorer, since both share one copy
// of the rank and switch logic.
#include "sat/decision.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

namespace refbmc::sat {
namespace {

constexpr DecisionMode kScorers[] = {DecisionMode::Chaff,
                                     DecisionMode::Evsids};

const char* scorer_name(DecisionMode m) {
  return m == DecisionMode::Chaff ? "chaff" : "evsids";
}

// The queue is pinned in place (its heap comparator captures `this`),
// so tests allocate it behind a unique_ptr.
std::unique_ptr<DecisionQueue> make(DecisionMode scorer, RankMode rank,
                                    int nvars, int update_period = 256) {
  auto q = std::make_unique<DecisionQueue>(scorer, rank, update_period);
  for (int i = 0; i < nvars; ++i) q->add_var();
  return q;
}

// ---- the Chaff scorer ------------------------------------------------------

TEST(HeuristicTest, InitialScoresAreLiteralCounts) {
  auto q = make(DecisionMode::Chaff, RankMode::None, 3);
  // var0 appears twice positive, var1 once negative.
  q->on_original_literal(Lit::make(0));
  q->on_original_literal(Lit::make(0));
  q->on_original_literal(Lit::make(1, true));
  EXPECT_DOUBLE_EQ(q->lit_score(Lit::make(0)), 2.0);
  EXPECT_DOUBLE_EQ(q->lit_score(Lit::make(0, true)), 0.0);
  EXPECT_DOUBLE_EQ(q->lit_score(Lit::make(1, true)), 1.0);
}

TEST(HeuristicTest, PopsHighestChaScore) {
  auto q = make(DecisionMode::Chaff, RankMode::None, 3);
  q->on_original_literal(Lit::make(1));
  q->on_original_literal(Lit::make(1));
  q->on_original_literal(Lit::make(2));
  // Literal seeding does not sift the heap; a rebuild realises the order.
  q->rebuild();
  EXPECT_EQ(q->pop(), 1);
  EXPECT_EQ(q->pop(), 2);
  EXPECT_EQ(q->pop(), 0);
  EXPECT_TRUE(q->empty());
}

TEST(HeuristicTest, PeriodicUpdateHalvesAndAdds) {
  auto q = make(DecisionMode::Chaff, RankMode::None, 1, /*period=*/2);
  for (int i = 0; i < 4; ++i) q->on_original_literal(Lit::make(0));
  q->on_learned_literal(Lit::make(0));  // new count 1
  q->on_conflict();                     // 1 of 2: no update yet
  EXPECT_DOUBLE_EQ(q->lit_score(Lit::make(0)), 4.0);
  q->on_conflict();  // period reached: 4/2 + 1 = 3
  EXPECT_DOUBLE_EQ(q->lit_score(Lit::make(0)), 3.0);
  // New-literal counters reset after the update.
  q->on_conflict();
  q->on_conflict();  // 3/2 + 0 = 1.5
  EXPECT_DOUBLE_EQ(q->lit_score(Lit::make(0)), 1.5);
}

TEST(HeuristicTest, PickPhasePrefersHigherScoreLiteral) {
  auto q = make(DecisionMode::Chaff, RankMode::None, 1);
  q->on_original_literal(Lit::make(0, true));
  q->on_original_literal(Lit::make(0, true));
  q->on_original_literal(Lit::make(0));
  EXPECT_EQ(q->pick_phase(0), Lit::make(0, true));
  // Ties go to the positive phase.
  auto q2 = make(DecisionMode::Chaff, RankMode::None, 1);
  EXPECT_EQ(q2->pick_phase(0), Lit::make(0));
}

// ---- rank modes and the §3.3 switch ----------------------------------------

TEST(HeuristicTest, StaticModeRankDominates) {
  for (const DecisionMode m : kScorers) {
    SCOPED_TRACE(scorer_name(m));
    auto q = make(m, RankMode::Static, 2);
    // var0 gets all the activity, var1 the rank: rank wins while active.
    for (int i = 0; i < 10; ++i) q->on_original_literal(Lit::make(0));
    q->on_analyzed_var(0);
    q->set_rank(1, 5.0);
    q->rebuild();
    EXPECT_TRUE(q->rank_active());
    EXPECT_EQ(q->pop(), 1);
    EXPECT_EQ(q->pop(), 0);
  }
}

TEST(HeuristicTest, ChaScoreBreaksRankTies) {
  auto q = make(DecisionMode::Chaff, RankMode::Static, 2);
  q->set_rank(0, 5.0);
  q->set_rank(1, 5.0);
  q->on_original_literal(Lit::make(1));
  q->rebuild();
  EXPECT_EQ(q->pop(), 1);  // equal rank → higher cha_score first
}

TEST(HeuristicTest, NoneModeIgnoresRank) {
  auto q = make(DecisionMode::Chaff, RankMode::None, 2);
  q->set_rank(1, 100.0);
  q->on_original_literal(Lit::make(0));
  q->rebuild();
  EXPECT_FALSE(q->rank_active());
  EXPECT_EQ(q->pop(), 0);
}

TEST(HeuristicTest, DynamicSwitchesAtThreshold) {
  for (const DecisionMode m : kScorers) {
    SCOPED_TRACE(scorer_name(m));
    auto q = make(m, RankMode::Dynamic, 2);
    q->set_rank(1, 100.0);
    q->rebuild();
    EXPECT_TRUE(q->rank_active());
    // 1000 original literals, divisor 64 → threshold 15 decisions.
    for (int d = 1; d <= 15; ++d) EXPECT_FALSE(q->on_decision(1000, 64));
    EXPECT_TRUE(q->rank_active());
    EXPECT_TRUE(q->on_decision(1000, 64));  // the 16th decision
    EXPECT_FALSE(q->rank_active());
    EXPECT_TRUE(q->switched());
    EXPECT_FALSE(q->on_decision(1000, 64));  // fires once
    // A new instance re-arms the switch and counts from zero again.
    q->reset_switch();
    EXPECT_TRUE(q->rank_active());
    for (int d = 1; d <= 15; ++d) EXPECT_FALSE(q->on_decision(1000, 64));
    EXPECT_TRUE(q->on_decision(1000, 64));
  }
}

TEST(HeuristicTest, StaticNeverSwitches) {
  auto q = make(DecisionMode::Chaff, RankMode::Static, 1);
  // 10 literals / 64 → threshold 0: every decision is past it.
  for (int d = 0; d < 1000; ++d) EXPECT_FALSE(q->on_decision(10, 64));
  EXPECT_TRUE(q->rank_active());
}

TEST(HeuristicTest, SwitchRebuildsOrdering) {
  auto q = make(DecisionMode::Chaff, RankMode::Dynamic, 2);
  q->set_rank(1, 100.0);                 // rank favours var1
  q->on_original_literal(Lit::make(0));  // VSIDS favours var0
  q->rebuild();
  EXPECT_TRUE(q->on_decision(10, 64));  // past the threshold: switch
  EXPECT_EQ(q->pop(), 0);               // now pure VSIDS order
}

TEST(HeuristicTest, ReplaceModeIgnoresChaScores) {
  auto q = make(DecisionMode::Chaff, RankMode::Replace, 2);
  // Equal ranks; var1 has a much higher cha_score.  In Replace mode the
  // tie goes to the lower index, not to VSIDS.
  q->set_rank(0, 5.0);
  q->set_rank(1, 5.0);
  for (int i = 0; i < 10; ++i) q->on_original_literal(Lit::make(1));
  q->rebuild();
  EXPECT_TRUE(q->rank_active());
  EXPECT_EQ(q->pop(), 0);
  EXPECT_EQ(q->pop(), 1);
}

TEST(HeuristicTest, ReplaceModeNeverSwitches) {
  auto q = make(DecisionMode::Chaff, RankMode::Replace, 1);
  for (int d = 0; d < 1000; ++d) EXPECT_FALSE(q->on_decision(10, 64));
  EXPECT_TRUE(q->rank_active());
}

// ---- the queue itself ------------------------------------------------------

TEST(HeuristicTest, InsertIsIdempotent) {
  auto q = make(DecisionMode::Chaff, RankMode::None, 1);
  q->insert(0);  // already queued by add_var
  q->insert(0);
  EXPECT_EQ(q->pop(), 0);
  EXPECT_TRUE(q->empty());
}

TEST(HeuristicTest, RejectsNonPositivePeriod) {
  EXPECT_THROW(DecisionQueue(DecisionMode::Chaff, RankMode::None, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace refbmc::sat
