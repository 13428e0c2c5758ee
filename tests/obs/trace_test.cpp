#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <string>

namespace refbmc::obs {
namespace {

/// Every test runs against the process-global session, so each one
/// tears it down (trace_end is idempotent through the active flag).
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (trace_active()) trace_end();
  }
};

TEST_F(TraceTest, InactiveByDefault) {
  EXPECT_FALSE(trace_active());
  // Recording without a session is a cheap no-op, not an error.
  trace_record(EventKind::Restart, -1, 1);
  TraceSpan span(EventKind::SpanSolve, 3);
  span.finish();
}

TEST_F(TraceTest, BeginRecordEnd) {
  ASSERT_TRUE(trace_begin());
  EXPECT_TRUE(trace_active());
  trace_set_thread_track("main");
  trace_record(EventKind::Restart, -1, 7);
  trace_record(EventKind::ReduceDb, -1, 123);

  const TraceDump dump = trace_end();
  EXPECT_FALSE(trace_active());
  ASSERT_EQ(dump.tracks.size(), 1u);
  EXPECT_EQ(dump.tracks[0].name, "main");
  EXPECT_EQ(dump.tracks[0].dropped, 0u);
  ASSERT_EQ(dump.tracks[0].events.size(), 2u);
  EXPECT_EQ(dump.tracks[0].events[0].kind, EventKind::Restart);
  EXPECT_EQ(dump.tracks[0].events[0].value, 7);
  EXPECT_EQ(dump.tracks[0].events[1].kind, EventKind::ReduceDb);
  EXPECT_EQ(dump.tracks[0].events[1].value, 123);
}

TEST_F(TraceTest, SecondBeginIsNoOp) {
  ASSERT_TRUE(trace_begin());
  EXPECT_FALSE(trace_begin());  // first session wins
  trace_end();
}

TEST_F(TraceTest, RingWrapsAndCountsDrops) {
  TraceConfig cfg;
  cfg.buffer_events = 8;
  ASSERT_TRUE(trace_begin(cfg));
  trace_set_thread_track("wrap");
  for (int i = 0; i < 20; ++i)
    trace_record(EventKind::PoolPublish, -1, i);

  const TraceDump dump = trace_end();
  ASSERT_EQ(dump.tracks.size(), 1u);
  const TrackDump& t = dump.tracks[0];
  // 20 recorded into 8 slots: 12 dropped, the NEWEST 8 retained in order.
  EXPECT_EQ(t.dropped, 12u);
  ASSERT_EQ(t.events.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(t.events[static_cast<std::size_t>(i)].kind,
              EventKind::PoolPublish);
    EXPECT_EQ(t.events[static_cast<std::size_t>(i)].value, 12 + i);
  }
  EXPECT_EQ(dump.total_events(), 8u);
  EXPECT_EQ(dump.total_dropped(), 12u);
}

TEST_F(TraceTest, TraceBufferDirect) {
  TraceBuffer buf(4);
  EXPECT_EQ(buf.capacity(), 4u);
  EXPECT_EQ(buf.recorded(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
  TraceEvent e;
  e.kind = EventKind::Restart;
  for (int i = 0; i < 3; ++i) {
    e.value = i;
    buf.record(e);
  }
  EXPECT_EQ(buf.recorded(), 3u);
  EXPECT_EQ(buf.dropped(), 0u);
  auto snap = buf.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].value, 0);
  EXPECT_EQ(snap[2].value, 2);

  for (int i = 3; i < 10; ++i) {
    e.value = i;
    buf.record(e);
  }
  EXPECT_EQ(buf.recorded(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
  snap = buf.snapshot();
  ASSERT_EQ(snap.size(), 4u);  // newest window, oldest first
  EXPECT_EQ(snap[0].value, 6);
  EXPECT_EQ(snap[3].value, 9);
}

TEST_F(TraceTest, SpansNestAndCarryDepth) {
  ASSERT_TRUE(trace_begin());
  trace_set_thread_track("nest");
  {
    TraceSpan outer(EventKind::SpanDepth, 5);
    {
      TraceSpan inner(EventKind::SpanSolve, 5);
      inner.set_value(42);
    }  // inner records first (ring order = finish order)
    outer.set_value(1);
  }
  const TraceDump dump = trace_end();
  ASSERT_EQ(dump.tracks.size(), 1u);
  const auto& ev = dump.tracks[0].events;
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].kind, EventKind::SpanSolve);
  EXPECT_EQ(ev[0].depth, 5);
  EXPECT_EQ(ev[0].value, 42);
  EXPECT_EQ(ev[1].kind, EventKind::SpanDepth);
  EXPECT_EQ(ev[1].value, 1);
  // Nesting: the outer span starts no later and ends no earlier.
  EXPECT_LE(ev[1].ts_us, ev[0].ts_us);
  EXPECT_GE(ev[1].ts_us + ev[1].dur_us, ev[0].ts_us + ev[0].dur_us);
}

TEST_F(TraceTest, FinishIsIdempotent) {
  ASSERT_TRUE(trace_begin());
  TraceSpan span(EventKind::SpanEncode, 2);
  span.finish();
  span.finish();  // second finish must not record again
  const TraceDump dump = trace_end();
  ASSERT_EQ(dump.tracks.size(), 1u);
  EXPECT_EQ(dump.tracks[0].events.size(), 1u);
}

TEST_F(TraceTest, UnnamedTracksGetDefaultNames) {
  ASSERT_TRUE(trace_begin());
  trace_record(EventKind::JobStart, -1, 0);  // never named this thread
  const TraceDump dump = trace_end();
  ASSERT_EQ(dump.tracks.size(), 1u);
  EXPECT_EQ(dump.tracks[0].name.rfind("thread-", 0), 0u);
}

TEST_F(TraceTest, SessionsAreIndependent) {
  ASSERT_TRUE(trace_begin());
  trace_record(EventKind::Restart);
  const TraceDump first = trace_end();
  EXPECT_EQ(first.total_events(), 1u);

  // A new session starts empty — the old ring was collected and freed.
  ASSERT_TRUE(trace_begin());
  trace_record(EventKind::ReduceDb);
  trace_record(EventKind::ReduceDb);
  const TraceDump second = trace_end();
  EXPECT_EQ(second.total_events(), 2u);
  ASSERT_EQ(second.tracks.size(), 1u);
  EXPECT_EQ(second.tracks[0].events[0].kind, EventKind::ReduceDb);
}

TEST_F(TraceTest, MonotonicClock) {
  const std::uint64_t a = monotonic_now_us();
  const std::uint64_t b = monotonic_now_us();
  EXPECT_LE(a, b);
}

TEST_F(TraceTest, KindMetadataIsTotal) {
  // Every kind has a non-empty name, a known category, and a span flag
  // consistent with the enum's documentation.
  const EventKind kinds[] = {
      EventKind::SpanDepth,       EventKind::SpanEncode,
      EventKind::SpanSimplify,    EventKind::SpanSolve,
      EventKind::TapeEncode,      EventKind::Restart,
      EventKind::ReduceDb,        EventKind::ImportBatch,
      EventKind::ExportBatch,     EventKind::DynamicFallback,
      EventKind::JobSubmit,       EventKind::JobStart,
      EventKind::JobVerdict,      EventKind::CancelRequest,
      EventKind::JobStop,         EventKind::PoolPublish,
      EventKind::PoolClose,       EventKind::SpanPreprocess};
  for (const EventKind k : kinds) {
    EXPECT_STRNE(to_string(k), "");
    const std::string cat = category(k);
    EXPECT_TRUE(cat == "bmc" || cat == "sat" || cat == "race") << cat;
  }
  EXPECT_TRUE(is_span(EventKind::SpanDepth));
  EXPECT_TRUE(is_span(EventKind::SpanSolve));
  EXPECT_TRUE(is_span(EventKind::ImportBatch));
  EXPECT_TRUE(is_span(EventKind::SpanPreprocess));
  EXPECT_FALSE(is_span(EventKind::Restart));
  EXPECT_FALSE(is_span(EventKind::PoolPublish));
}

}  // namespace
}  // namespace refbmc::obs
