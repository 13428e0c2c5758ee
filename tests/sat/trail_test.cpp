// The Trail layer in isolation: assignment stack, levels, reasons, the
// propagation queue, and backtracking with the unassign callback.
#include "sat/trail.hpp"

#include <gtest/gtest.h>

namespace refbmc::sat {
namespace {

Lit pos(Var v) { return Lit::make(v); }
Lit neg(Var v) { return Lit::make(v, true); }

TEST(TrailTest, NewVarsStartUnassigned) {
  Trail t;
  for (int i = 0; i < 3; ++i) EXPECT_EQ(t.new_var(), i);
  EXPECT_EQ(t.num_vars(), 3);
  for (Var v = 0; v < 3; ++v) {
    EXPECT_EQ(t.value(v), l_Undef);
    EXPECT_EQ(t.reason(v), kClauseRefUndef);
  }
  EXPECT_EQ(t.decision_level(), 0);
  EXPECT_TRUE(t.fully_propagated());
}

TEST(TrailTest, AssignRecordsValueLevelReason) {
  Trail t;
  for (int i = 0; i < 3; ++i) t.new_var();
  t.assign(pos(0), kClauseRefUndef);  // root fact
  t.new_decision_level();
  t.assign(neg(1), kClauseRefUndef);  // decision
  t.assign(pos(2), /*reason=*/40);    // implied
  EXPECT_EQ(t.value(pos(0)), l_True);
  EXPECT_EQ(t.value(neg(1)), l_True);
  EXPECT_EQ(t.value(pos(1)), l_False);
  EXPECT_EQ(t.level(0), 0);
  EXPECT_EQ(t.level(1), 1);
  EXPECT_EQ(t.level(2), 1);
  EXPECT_EQ(t.reason(2), 40u);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], pos(0));
  EXPECT_EQ(t[2], pos(2));
}

TEST(TrailTest, QueueDrainsInAssignmentOrder) {
  Trail t;
  for (int i = 0; i < 3; ++i) t.new_var();
  t.assign(pos(0), kClauseRefUndef);
  t.assign(pos(1), kClauseRefUndef);
  EXPECT_FALSE(t.fully_propagated());
  EXPECT_EQ(t.dequeue(), pos(0));
  t.assign(pos(2), kClauseRefUndef);  // enqueued mid-drain
  EXPECT_EQ(t.dequeue(), pos(1));
  EXPECT_EQ(t.dequeue(), pos(2));
  EXPECT_TRUE(t.fully_propagated());
}

TEST(TrailTest, FlushQueueDiscardsPending) {
  Trail t;
  for (int i = 0; i < 2; ++i) t.new_var();
  t.assign(pos(0), kClauseRefUndef);
  t.flush_queue();
  EXPECT_TRUE(t.fully_propagated());
}

TEST(TrailTest, CancelUntilUnassignsAboveLevelMostRecentFirst) {
  Trail t;
  for (int i = 0; i < 4; ++i) t.new_var();
  t.assign(neg(0), kClauseRefUndef);
  t.new_decision_level();
  t.assign(pos(1), kClauseRefUndef);
  t.new_decision_level();
  t.assign(pos(2), kClauseRefUndef);
  t.assign(neg(3), 8);

  std::vector<Var> unassigned;
  t.cancel_until(1, [&](Var v) { unassigned.push_back(v); });
  EXPECT_EQ(unassigned, (std::vector<Var>{3, 2}));
  EXPECT_EQ(t.decision_level(), 1);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.value(2), l_Undef);
  EXPECT_EQ(t.reason(3), kClauseRefUndef);
  EXPECT_EQ(t.value(1), l_True);  // level 1 survives

  // Values live per literal: a cancel frees both slots of each cancelled
  // variable (one assigned positive, one negative) ...
  for (const Var v : {2, 3}) {
    EXPECT_EQ(t.value(pos(v)), l_Undef) << v;
    EXPECT_EQ(t.value(neg(v)), l_Undef) << v;
  }
  // ... and leaves both slots of each survivor in step.
  EXPECT_EQ(t.value(neg(0)), l_True);
  EXPECT_EQ(t.value(pos(0)), l_False);
  EXPECT_EQ(t.value(pos(1)), l_True);
  EXPECT_EQ(t.value(neg(1)), l_False);
  EXPECT_EQ(t.assignments(),
            (std::vector<lbool>{l_False, l_True, l_Undef, l_Undef}));

  // Cancelling at or above the current level is a no-op.
  t.cancel_until(1, [&](Var) { FAIL() << "nothing to unassign"; });
  t.cancel_until(5, [&](Var) { FAIL() << "nothing to unassign"; });

  // A cancelled variable re-assigned the other way reads the new value
  // through either literal.
  t.assign(neg(2), kClauseRefUndef);
  EXPECT_EQ(t.value(pos(2)), l_False);
  EXPECT_EQ(t.value(neg(2)), l_True);
  EXPECT_EQ(t.value(2), l_False);
}

TEST(TrailTest, CancelRewindsQueueHead) {
  Trail t;
  for (int i = 0; i < 2; ++i) t.new_var();
  t.new_decision_level();
  t.assign(pos(0), kClauseRefUndef);
  t.assign(pos(1), kClauseRefUndef);
  while (!t.fully_propagated()) t.dequeue();
  t.cancel_until(0, [](Var) {});
  EXPECT_TRUE(t.fully_propagated());  // nothing pending on an empty trail
  t.new_decision_level();
  t.assign(pos(1), kClauseRefUndef);
  EXPECT_EQ(t.dequeue(), pos(1));  // re-assignments re-enter the queue
}

TEST(TrailTest, AbstractLevelHashesLevelBits) {
  Trail t;
  for (int i = 0; i < 2; ++i) t.new_var();
  t.new_decision_level();
  t.assign(pos(0), kClauseRefUndef);
  EXPECT_EQ(t.abstract_level(0), 1u << 1);
}

}  // namespace
}  // namespace refbmc::sat
