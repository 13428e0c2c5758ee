// Observability through the full stack: a traced race must come back
// with one track per entrant, per-depth phase spans on each of them, the
// job lifecycle on the scheduler's axis, and a cancel latency consistent
// with the trace — all without perturbing verdicts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "model/benchgen.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "portfolio/scheduler.hpp"

namespace refbmc::portfolio {
namespace {

using obs::EventKind;
using obs::TraceDump;
using obs::TrackDump;

std::size_t count_kind(const TrackDump& track, EventKind kind) {
  std::size_t n = 0;
  for (const auto& e : track.events) n += e.kind == kind ? 1 : 0;
  return n;
}

class TraceRaceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (obs::trace_active()) obs::trace_end();
    obs::metrics_enable(false);
  }
};

TEST_F(TraceRaceTest, TracedRaceYieldsOneTrackPerEntrant) {
  const auto suite = model::quick_suite();
  const auto& bm = suite.front();
  bmc::EngineConfig engine;
  engine.max_depth = bm.suggested_bound;

  obs::TraceConfig cfg;
  cfg.buffer_events = 16384;
  ASSERT_TRUE(obs::trace_begin(cfg));
  obs::trace_set_thread_track("driver");
  obs::metrics_enable(true);
  obs::metrics().reset();

  const auto policies = default_race_policies();
  const RaceResult race = portfolio::race(bm.net, 0, engine, policies);
  const TraceDump dump = obs::trace_end();
  obs::metrics_enable(false);

  ASSERT_TRUE(race.has_winner());

  // One track per entrant, named after its policy, plus the driver's.
  ASSERT_EQ(dump.tracks.size(), policies.size() + 1);
  const TrackDump* driver = nullptr;
  std::vector<const TrackDump*> entrants;
  for (const TrackDump& t : dump.tracks) {
    if (t.name == "driver")
      driver = &t;
    else
      entrants.push_back(&t);
  }
  ASSERT_NE(driver, nullptr);
  ASSERT_EQ(entrants.size(), policies.size());
  for (const auto policy : policies) {
    bool found = false;
    for (const TrackDump* t : entrants) found |= t->name == to_string(policy);
    EXPECT_TRUE(found) << "no track for " << to_string(policy);
  }

  // The driver submitted every entrant; each entrant ran its lifecycle.
  EXPECT_EQ(count_kind(*driver, EventKind::JobSubmit), policies.size());
  std::size_t verdicts = 0, cancels = 0;
  for (const TrackDump* t : entrants) {
    EXPECT_EQ(count_kind(*t, EventKind::JobStart), 1u) << t->name;
    EXPECT_EQ(count_kind(*t, EventKind::JobStop), 1u) << t->name;
    verdicts += count_kind(*t, EventKind::JobVerdict);
    cancels += count_kind(*t, EventKind::CancelRequest);
  }
  EXPECT_EQ(verdicts, 1u);
  EXPECT_EQ(cancels, 1u);

  // The winner's track carries the per-depth phase spans: every depth it
  // completed shows encode and solve (simplify only where the encoder
  // actually folded something), wrapped by a depth span.
  const TrackDump* winner_track = nullptr;
  const std::string winner_name = to_string(race.winning().policy);
  for (const TrackDump* t : entrants)
    if (t->name == winner_name) winner_track = t;
  ASSERT_NE(winner_track, nullptr);
  const std::size_t winner_depths =
      race.winning().result.per_depth.size();
  EXPECT_EQ(count_kind(*winner_track, EventKind::SpanDepth), winner_depths);
  EXPECT_EQ(count_kind(*winner_track, EventKind::SpanEncode), winner_depths);
  EXPECT_EQ(count_kind(*winner_track, EventKind::SpanSolve), winner_depths);

  // Encode-once: tape_encode spans appear exactly once per frame,
  // race-wide (frame 0..max depth reached by anybody).
  std::size_t tape_spans = 0;
  int max_depth_reached = 0;
  for (const TrackDump& t : dump.tracks) {
    tape_spans += count_kind(t, EventKind::TapeEncode);
    for (const auto& e : t.events)
      if (e.depth > max_depth_reached) max_depth_reached = e.depth;
  }
  EXPECT_EQ(tape_spans, race.frames_encoded);
  EXPECT_GE(max_depth_reached, 0);

  // Metrics rode along: one depth observation per completed depth of
  // every entrant.
  std::uint64_t total_depths = 0;
  for (const auto& entrant : race.entrants)
    total_depths += entrant.result.per_depth.size();
  EXPECT_EQ(obs::metrics().counter("bmc.depths").value(), total_depths);
  EXPECT_EQ(obs::metrics().histogram("bmc.solve_us").count(), total_depths);
}

TEST_F(TraceRaceTest, PhaseTimesLandInDepthStats) {
  // The DepthStats phase split must be filled whether or not tracing is
  // on — it feeds BENCH json and write_depth_stats directly.
  const auto suite = model::quick_suite();
  const auto& bm = suite.back();
  bmc::EngineConfig engine;
  engine.max_depth = bm.suggested_bound;
  const RaceResult race = portfolio::race(bm.net, 0, engine);
  ASSERT_TRUE(race.has_winner());
  std::uint64_t encode_total = 0, solve_total = 0;
  for (const auto& d : race.winning().result.per_depth) {
    encode_total += d.encode_us;
    solve_total += d.solve_us;
    // solve_us is the wall clock around solver.solve(), so it bounds the
    // solver's internally-measured time_sec from above (modulo rounding).
    EXPECT_GE(static_cast<double>(d.solve_us) / 1e6 + 0.005, d.time_sec)
        << "depth " << d.depth;
  }
  // Summed across all completed depths the split cannot be all zeros —
  // some depth took at least a microsecond to prepare or solve.
  EXPECT_GT(encode_total + solve_total, 0u);
}

TEST_F(TraceRaceTest, CancelLatencyReported) {
  const auto suite = model::quick_suite();
  const auto& bm = suite.front();
  bmc::EngineConfig engine;
  engine.max_depth = bm.suggested_bound;

  // Multi-entrant race with a winner: latency is defined (>= 0 always;
  // == 0 exactly when every loser finished before the verdict).
  const RaceResult race = portfolio::race(bm.net, 0, engine);
  ASSERT_TRUE(race.has_winner());
  EXPECT_GE(race.cancel_latency_us, 0u);
  // Bounded by the race itself (generous slack for scheduling noise).
  EXPECT_LE(static_cast<double>(race.cancel_latency_us) / 1e6,
            race.wall_time_sec + 1.0);

  // Single entrant: nobody to cancel.
  const RaceResult solo = portfolio::race(
      bm.net, 0, engine, {bmc::OrderingPolicy::Baseline});
  EXPECT_EQ(solo.cancel_latency_us, 0u);
}

TEST_F(TraceRaceTest, UntracedRaceRecordsNothing) {
  ASSERT_FALSE(obs::trace_active());
  const auto suite = model::quick_suite();
  const auto& bm = suite.front();
  bmc::EngineConfig engine;
  engine.max_depth = bm.suggested_bound;
  const RaceResult race = portfolio::race(bm.net, 0, engine);
  ASSERT_TRUE(race.has_winner());
  // No session: a later begin/end pair sees an empty world, not stale
  // events from the untraced race.
  ASSERT_TRUE(obs::trace_begin());
  const TraceDump dump = obs::trace_end();
  EXPECT_EQ(dump.total_events(), 0u);
}

}  // namespace
}  // namespace refbmc::portfolio
