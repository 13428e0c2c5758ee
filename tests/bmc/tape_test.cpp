// ClauseTape / SharedTape: recording and replaying the encoder stream
// must reproduce the formula bit-for-bit, cursors must translate between
// variable spaces, the shared tape must encode each frame exactly once
// no matter how many consumers (or threads) pull on it, and its
// footprint must be charged to the memory tracker.
#include "bmc/tape.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "../helpers.hpp"
#include "model/benchgen.hpp"
#include "sat/solver.hpp"

namespace refbmc::bmc {
namespace {

using test::load;

BmcInstance replay_to_instance(SharedTape& tape, int k) {
  BmcInstance inst;
  inst.depth = k;
  InstanceSink sink(inst);
  ClauseTape::Cursor cursor;
  tape.replay_to(k, cursor, sink);
  return inst;
}

/// Records the replay stream verbatim for comparison.
struct RecordSink final : ClauseSink {
  std::vector<VarOrigin> vars;
  std::vector<std::vector<sat::Lit>> clauses;

  sat::Var add_var(const VarOrigin& origin) override {
    vars.push_back(origin);
    return static_cast<sat::Var>(vars.size() - 1);
  }
  void add_clause(std::span<const sat::Lit> lits) override {
    clauses.emplace_back(lits.begin(), lits.end());
  }
};

bool streams_equal(const RecordSink& a, const RecordSink& b) {
  if (a.vars.size() != b.vars.size() || a.clauses.size() != b.clauses.size())
    return false;
  for (std::size_t i = 0; i < a.vars.size(); ++i)
    if (a.vars[i].node != b.vars[i].node || a.vars[i].frame != b.vars[i].frame)
      return false;
  for (std::size_t i = 0; i < a.clauses.size(); ++i)
    if (a.clauses[i] != b.clauses[i]) return false;
  return true;
}

TEST(ClauseTapeTest, ReplayReproducesDirectEncoding) {
  const auto bm = model::fifo_safe(3);
  for (const bool simplify : {false, true}) {
    EncoderOptions opts;
    opts.simplify = simplify;

    // Direct: encoder → instance.
    BmcInstance direct;
    InstanceSink direct_sink(direct);
    FrameEncoder enc(bm.net, direct_sink, 0, opts);
    enc.encode_to(4);

    // Via tape: encoder → tape → instance.
    SharedTape tape(bm.net, 0, opts);
    const BmcInstance replayed = replay_to_instance(tape, 4);

    ASSERT_EQ(replayed.origin.size(), direct.origin.size());
    for (std::size_t v = 0; v < direct.origin.size(); ++v) {
      EXPECT_EQ(replayed.origin[v].node, direct.origin[v].node);
      EXPECT_EQ(replayed.origin[v].frame, direct.origin[v].frame);
    }
    ASSERT_EQ(replayed.cnf.clauses.size(), direct.cnf.clauses.size());
    for (std::size_t c = 0; c < direct.cnf.clauses.size(); ++c)
      EXPECT_EQ(replayed.cnf.clauses[c], direct.cnf.clauses[c]) << c;
  }
}

TEST(ClauseTapeTest, CursorResumesWithDeltas) {
  // Replaying 0..2 then 3..5 must equal replaying 0..5 in one go.
  const auto bm = model::counter_reach(4, 6, true);
  SharedTape tape(bm.net, 0, {});
  BmcInstance whole = replay_to_instance(tape, 5);

  BmcInstance steps;
  InstanceSink sink(steps);
  ClauseTape::Cursor cursor;
  tape.replay_to(2, cursor, sink);
  const std::size_t vars_at_2 = steps.origin.size();
  tape.replay_to(5, cursor, sink);
  EXPECT_GT(steps.origin.size(), vars_at_2);
  EXPECT_EQ(steps.origin.size(), whole.origin.size());
  EXPECT_EQ(steps.cnf.clauses.size(), whole.cnf.clauses.size());
}

TEST(ClauseTapeTest, CursorTranslatesIntoShiftedSpaces) {
  // A sink that interleaves its own variables (like the incremental
  // session's activation literals) shifts the variable space; the cursor
  // map must land tape literals on the right sink variables.
  const auto bm = model::counter_reach(3, 2, true);
  SharedTape tape(bm.net, 0, {});

  sat::Solver solver;
  std::vector<VarOrigin> origin;
  SolverSink sink(solver, origin);
  // Interleave: one foreign variable before anything else.
  origin.push_back(VarOrigin{model::kConstNode, -7});
  solver.new_var();

  ClauseTape::Cursor cursor;
  tape.replay_to(2, cursor, sink);
  // Every tape var maps one past itself.
  for (std::size_t v = 0; v < cursor.var_map.size(); ++v)
    EXPECT_EQ(cursor.var_map[v], static_cast<sat::Var>(v + 1));
  const sat::Lit prop = cursor.translate(tape.property(2));
  solver.add_clause({prop});
  EXPECT_EQ(solver.solve(), sat::Result::Sat);  // cex at depth 2 exists
}

TEST(ClauseTapeTest, StandaloneTapeReplaysAndExportsTheSharedStream) {
  const auto bm = model::counter_reach(4, 6, true);
  SharedTape shared(bm.net, 0, {});
  RecordSink reference;
  {
    ClauseTape::Cursor cursor;
    shared.replay_to(5, cursor, reference);
  }

  // Same stream recorded into a standalone tape, marked halfway.
  ClauseTape tape;
  for (const auto& o : reference.vars) tape.add_var(o);
  const std::size_t half = reference.clauses.size() / 2;
  std::size_t added = 0;
  ClauseTape::Mark mid{};
  for (const auto& c : reference.clauses) {
    tape.add_clause(c);
    if (++added == half) mid = tape.mark();
  }
  const ClauseTape::Mark end = tape.mark();
  ASSERT_GT(mid.ops, 0u);
  ASSERT_LT(mid.ops, end.ops);

  RecordSink replayed;
  ClauseTape::Cursor cursor;
  tape.replay(cursor, end, replayed);
  EXPECT_TRUE(streams_equal(reference, replayed));

  // The same stream in two legs, the second starting mid-tape.
  RecordSink stitched;
  ClauseTape::Cursor legs;
  tape.replay(legs, mid, stitched);
  EXPECT_EQ(stitched.clauses.size(), half);
  tape.replay(legs, end, stitched);
  EXPECT_TRUE(streams_equal(reference, stitched));

  ClauseList exported;
  tape.append_clauses(ClauseTape::Mark{}, end, exported);
  ASSERT_EQ(exported.size(), reference.clauses.size());
  for (std::size_t i = 0; i < exported.size(); ++i)
    EXPECT_TRUE(std::ranges::equal(exported[i], reference.clauses[i])) << i;

  ClauseList tail;
  tape.append_clauses(mid, end, tail);
  ASSERT_EQ(tail.size(), reference.clauses.size() - half);
  for (std::size_t i = 0; i < tail.size(); ++i)
    EXPECT_TRUE(std::ranges::equal(tail[i], reference.clauses[half + i]))
        << i;
}

TEST(SharedTapeTest, EnsureDepthEncodesEachFrameOnce) {
  const auto bm = model::fifo_safe(3);
  SharedTape tape(bm.net, 0, {});
  EXPECT_EQ(tape.frames_encoded(), 0u);
  tape.ensure_depth(3);
  EXPECT_EQ(tape.frames_encoded(), 4u);
  tape.ensure_depth(3);
  tape.ensure_depth(1);
  EXPECT_EQ(tape.frames_encoded(), 4u);
  tape.ensure_depth(6);
  EXPECT_EQ(tape.frames_encoded(), 7u);
}

TEST(SharedTapeTest, MarksGrowMonotonically) {
  // (A model with inputs: a closed circuit folds to constants under
  // simplification and its frames add nothing to the tape.)
  const auto bm = model::counter_reach(4, 6, true);
  SharedTape tape(bm.net, 0, {});
  ClauseTape::Mark prev = tape.mark_at(0);
  for (int k = 1; k <= 5; ++k) {
    const ClauseTape::Mark m = tape.mark_at(k);
    EXPECT_GT(m.ops, prev.ops);
    EXPECT_GE(m.vars, prev.vars);
    EXPECT_GT(m.clauses, prev.clauses);
    prev = m;
  }
}

TEST(SharedTapeTest, ConcurrentConsumersEncodeOnce) {
  // Many threads racing ensure/replay at staggered depths: the formula
  // each one sees must be correct (verdict check) and the tape must have
  // encoded every frame exactly once.
  const auto bm = model::counter_reach(4, 6, true);
  SharedTape tape(bm.net, 0, {});
  constexpr int kThreads = 8;
  constexpr int kDepth = 6;
  std::atomic<int> sat_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sat::Solver solver;
      std::vector<VarOrigin> origin;
      SolverSink sink(solver, origin);
      ClauseTape::Cursor cursor;
      // Walk the depths one by one like an incremental session would,
      // starting from a thread-specific depth to stagger encoding races.
      for (int k = t % 3; k <= kDepth; ++k)
        tape.replay_to(k, cursor, sink);
      solver.add_clause({cursor.translate(tape.property(kDepth))});
      if (solver.solve() == sat::Result::Sat)
        sat_count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(sat_count.load(), kThreads);  // cex at depth 6 for everyone
  EXPECT_EQ(tape.frames_encoded(), static_cast<std::uint64_t>(kDepth + 1));
}

TEST(SharedTapeTest, ConcurrentDeltaReplayGivesTheSameFormula) {
  // Preprocessing on: three consumers replay one tape to staggered
  // depths at once, one a depth at a time and two jumping, so the delta
  // passes run on whichever gets there first while the others copy
  // published deltas outside the lock.  Every stream — variables in
  // creation order with their origins, then clauses, clause for clause —
  // must equal a single-threaded replay of a fresh tape to the same
  // depth (stepping and jumping give one stream: the deltas in order).
  PreprocessOptions popt;
  popt.enabled = true;
  const std::vector<std::vector<int>> plans{
      {0, 1, 2, 3, 4, 5, 6, 7, 8}, {3, 7}, {2, 5, 8}};
  for (const model::Benchmark& bm :
       {model::counter_reach(4, 6, true),
        model::with_distractor(model::fifo_safe(3), 8, 1)}) {
    std::vector<RecordSink> reference(plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
      SharedTape solo(bm.net, 0, {}, popt);
      ClauseTape::Cursor cursor;
      solo.replay_to(plans[i].back(), cursor, reference[i]);
      // The delta path must really eliminate something.
      ASSERT_LT(reference[i].vars.size(),
                solo.mark_at(plans[i].back()).vars);
    }
    for (int round = 0; round < 3; ++round) {
      SharedTape shared(bm.net, 0, {}, popt);
      std::vector<RecordSink> got(plans.size());
      std::atomic<bool> go{false};
      std::vector<std::thread> threads;
      for (std::size_t i = 0; i < plans.size(); ++i) {
        threads.emplace_back([&, i] {
          while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
          ClauseTape::Cursor cursor;
          for (const int k : plans[i]) shared.replay_to(k, cursor, got[i]);
        });
      }
      go.store(true, std::memory_order_release);
      for (auto& th : threads) th.join();
      for (std::size_t i = 0; i < plans.size(); ++i)
        EXPECT_TRUE(streams_equal(got[i], reference[i]))
            << bm.name << " round " << round << " consumer " << i;
    }
  }
}

TEST(SharedTapeTest, StatsAtDepthAreCumulativeSnapshots) {
  const auto bm = model::fifo_safe(3);
  SharedTape tape(bm.net, 0, {});
  tape.ensure_depth(5);  // encode ahead; snapshots must still be per-depth
  const EncodeStats at2 = tape.stats_at(2);
  const EncodeStats at5 = tape.stats_at(5);
  EXPECT_EQ(at2.frames_encoded, 3u);
  EXPECT_EQ(at5.frames_encoded, 6u);
  EXPECT_LT(at2.vars_emitted, at5.vars_emitted);
  EXPECT_LE(at2.vars_removed, at5.vars_removed);
}

TEST(SharedTapeMemTest, FootprintIsChargedToTheTracker) {
  const auto bm = model::fifo_safe(3);
  MemTracker mem;
  SharedTape tape(bm.net, 0, {});
  tape.set_mem_tracker(&mem);
  EXPECT_EQ(mem.current(), 0u);
  tape.ensure_depth(5);
  EXPECT_GT(mem.current(), 0u);
  EXPECT_EQ(mem.current(), tape.memory_bytes());
  EXPECT_GE(mem.peak(), mem.current());
  tape.set_mem_tracker(nullptr);
  EXPECT_EQ(mem.current(), 0u);
}

}  // namespace
}  // namespace refbmc::bmc
