// JobServer lifecycle: admission, priorities, cancel, deadlines, the
// result cache short-circuit and the rank warm start — the serving
// guarantees on top of api::check.
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/benchgen.hpp"
#include "service/job_server.hpp"

namespace refbmc::service {
namespace {

using namespace std::chrono_literals;

/// A quick job: finds the FIFO bug within a second.
api::CheckRequest quick_request() {
  api::CheckRequest r;
  r.net = model::fifo_buggy(4).net;
  r.name = "fifobug4";
  r.options.policy("dynamic").max_depth(24);
  return r;
}

/// A job that keeps a worker busy until cancelled / evicted: a safe
/// model with a practically unreachable bound (every depth is UNSAT, so
/// it never terminates early on a verdict).
api::CheckRequest slow_request() {
  api::CheckRequest r;
  r.net = model::arbiter_safe(8).net;
  r.name = "blocker";
  r.options.policy("dynamic").max_depth(100000);
  return r;
}

void spin_until_running(JobServer& server, JobId id) {
  for (int i = 0; i < 5000; ++i) {
    const auto st = server.poll(id);
    ASSERT_TRUE(st.has_value());
    if (st->state == JobState::Running) return;
    ASSERT_FALSE(is_terminal(st->state)) << to_string(st->state);
    std::this_thread::sleep_for(1ms);
  }
  FAIL() << "job never started running";
}

TEST(JobServerTest, SubmitRunsToDoneWithProgress) {
  JobServer server;
  const SubmitOutcome out = server.submit(quick_request());
  ASSERT_TRUE(out.accepted);

  const auto st = server.wait(out.id, /*timeout_sec=*/30.0);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, JobState::Done);
  EXPECT_EQ(st->result.status,
            api::CheckResult::Status::CounterexampleFound);
  EXPECT_FALSE(st->result.from_cache);
  EXPECT_GT(st->depths_completed, 0);
  EXPECT_GT(st->events_available, 0u);

  // The progress stream is per-depth, monotone in seq, resumable.
  const auto all = server.events(out.id);
  ASSERT_FALSE(all.empty());
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LT(all[i - 1].seq, all[i].seq);
  const auto tail = server.events(out.id, all.front().seq);
  EXPECT_EQ(tail.size(), all.size() - 1);
}

TEST(JobServerTest, IdenticalResubmissionIsServedFromCacheWithoutSolving) {
  JobServer server;
  const SubmitOutcome first = server.submit(quick_request());
  ASSERT_TRUE(first.accepted);
  const auto st1 = server.wait(first.id, 30.0);
  ASSERT_TRUE(st1.has_value());
  ASSERT_EQ(st1->state, JobState::Done);

  const SubmitOutcome second = server.submit(quick_request());
  ASSERT_TRUE(second.accepted);
  const auto st2 = server.wait(second.id, 30.0);
  ASSERT_TRUE(st2.has_value());
  ASSERT_EQ(st2->state, JobState::Done);

  // Served from cache: flagged, counted, verbatim — and no solver ran,
  // so the job emitted not a single per-depth progress event.
  EXPECT_TRUE(st2->result.from_cache);
  EXPECT_FALSE(st1->result.from_cache);
  EXPECT_TRUE(server.events(second.id).empty());
  EXPECT_EQ(st2->result.status, st1->result.status);
  EXPECT_EQ(st2->result.counterexample_depth,
            st1->result.counterexample_depth);
  EXPECT_EQ(st2->result.total_decisions(), st1->result.total_decisions());
  ASSERT_TRUE(st2->result.counterexample.has_value());

  const JobServer::Stats stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(JobServerTest, UseCacheOffForcesASolve) {
  JobServer server;
  const SubmitOutcome first = server.submit(quick_request());
  ASSERT_TRUE(first.accepted);
  ASSERT_TRUE(server.wait(first.id, 30.0).has_value());

  JobOptions opts;
  opts.use_cache = false;
  const SubmitOutcome second = server.submit(quick_request(), opts);
  ASSERT_TRUE(second.accepted);
  const auto st = server.wait(second.id, 30.0);
  ASSERT_TRUE(st.has_value());
  EXPECT_FALSE(st->result.from_cache);
  EXPECT_EQ(server.stats().cache_hits, 0u);
}

TEST(JobServerTest, CancelQueuedAndRunning) {
  ServerConfig cfg;
  cfg.workers = 1;
  JobServer server(cfg);

  const SubmitOutcome blocker = server.submit(slow_request());
  ASSERT_TRUE(blocker.accepted);
  spin_until_running(server, blocker.id);

  const SubmitOutcome queued = server.submit(quick_request());
  ASSERT_TRUE(queued.accepted);
  EXPECT_EQ(server.poll(queued.id)->state, JobState::Queued);

  // Queued: cancelled on the spot, never runs.
  EXPECT_TRUE(server.cancel(queued.id));
  EXPECT_EQ(server.poll(queued.id)->state, JobState::Cancelled);
  EXPECT_FALSE(server.cancel(queued.id));  // already terminal

  // Running: stops at the next solver checkpoint.
  EXPECT_TRUE(server.cancel(blocker.id));
  const auto st = server.wait(blocker.id, 30.0);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, JobState::Cancelled);

  EXPECT_FALSE(server.cancel(9999));  // unknown id
}

TEST(JobServerTest, DeadlineEvictsWhileOtherJobsComplete) {
  ServerConfig cfg;
  cfg.workers = 1;
  JobServer server(cfg);

  const SubmitOutcome blocker = server.submit(slow_request());
  ASSERT_TRUE(blocker.accepted);
  spin_until_running(server, blocker.id);

  // Deadline runs from ADMISSION: a job that expires while still queued
  // behind the blocker is evicted without ever running...
  JobOptions tight;
  tight.deadline_sec = 0.02;
  const SubmitOutcome doomed = server.submit(quick_request(), tight);
  ASSERT_TRUE(doomed.accepted);

  // ...while its queue-mates are untouched.
  const SubmitOutcome healthy = server.submit(quick_request());
  ASSERT_TRUE(healthy.accepted);

  std::this_thread::sleep_for(60ms);  // let the tight deadline lapse
  ASSERT_TRUE(server.cancel(blocker.id));

  const auto doomed_st = server.wait(doomed.id, 30.0);
  ASSERT_TRUE(doomed_st.has_value());
  EXPECT_EQ(doomed_st->state, JobState::DeadlineExceeded);
  EXPECT_TRUE(server.events(doomed.id).empty());  // never solved

  const auto healthy_st = server.wait(healthy.id, 30.0);
  ASSERT_TRUE(healthy_st.has_value());
  EXPECT_EQ(healthy_st->state, JobState::Done);
  EXPECT_EQ(healthy_st->result.status,
            api::CheckResult::Status::CounterexampleFound);

  EXPECT_GE(server.stats().deadline_evictions, 1u);
}

TEST(JobServerTest, DeadlineStopsARunningJobAtADepthBoundary) {
  JobServer server;
  JobOptions opts;
  opts.deadline_sec = 0.2;
  const SubmitOutcome out = server.submit(slow_request(), opts);
  ASSERT_TRUE(out.accepted);
  const auto st = server.wait(out.id, 60.0);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, JobState::DeadlineExceeded);
}

TEST(JobServerTest, PriorityClassesDrainHighBeforeBatch) {
  ServerConfig cfg;
  cfg.workers = 1;
  JobServer server(cfg);

  const SubmitOutcome blocker = server.submit(slow_request());
  ASSERT_TRUE(blocker.accepted);
  spin_until_running(server, blocker.id);

  // Admitted in batch-before-high order; the worker must still pick the
  // high-priority one first once the blocker is out of the way.
  JobOptions batch;
  batch.priority = Priority::Batch;
  batch.use_cache = false;
  api::CheckRequest batch_req = quick_request();
  batch_req.name = "batch";
  const SubmitOutcome low = server.submit(std::move(batch_req), batch);
  ASSERT_TRUE(low.accepted);

  JobOptions high;
  high.priority = Priority::High;
  high.use_cache = false;
  api::CheckRequest high_req = quick_request();
  high_req.name = "high";
  const SubmitOutcome hi = server.submit(std::move(high_req), high);
  ASSERT_TRUE(hi.accepted);

  ASSERT_TRUE(server.cancel(blocker.id));
  const auto hi_st = server.wait(hi.id, 30.0);
  const auto low_st = server.wait(low.id, 30.0);
  ASSERT_TRUE(hi_st.has_value());
  ASSERT_TRUE(low_st.has_value());
  EXPECT_EQ(hi_st->state, JobState::Done);
  EXPECT_EQ(low_st->state, JobState::Done);
  // The batch job was admitted FIRST but started only after the high one
  // finished, so it waited strictly longer.
  EXPECT_GT(low_st->queue_sec, hi_st->queue_sec);
}

TEST(JobServerTest, FullQueueRejectsWithTypedReason) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  JobServer server(cfg);

  const SubmitOutcome running = server.submit(slow_request());
  ASSERT_TRUE(running.accepted);
  spin_until_running(server, running.id);

  const SubmitOutcome queued = server.submit(quick_request());
  ASSERT_TRUE(queued.accepted);

  const SubmitOutcome overflow = server.submit(quick_request());
  EXPECT_FALSE(overflow.accepted);
  EXPECT_EQ(overflow.reason, RejectReason::QueueFull);
  // Rejected jobs are still pollable — the client can learn why.
  const auto st = server.poll(overflow.id);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, JobState::Rejected);
  EXPECT_EQ(st->reject, RejectReason::QueueFull);
  EXPECT_EQ(server.stats().rejected, 1u);

  server.cancel(running.id);
  server.cancel(queued.id);
}

TEST(JobServerTest, InvalidRequestsAreRejectedUpFront) {
  JobServer server;
  api::CheckRequest bad_property = quick_request();
  bad_property.bad_index = 99;  // out of range
  const SubmitOutcome o1 = server.submit(std::move(bad_property));
  EXPECT_FALSE(o1.accepted);
  EXPECT_EQ(o1.reason, RejectReason::InvalidRequest);

  api::CheckRequest bad_policy = quick_request();
  bad_policy.options.policy("no-such-policy");
  const SubmitOutcome o2 = server.submit(std::move(bad_policy));
  EXPECT_FALSE(o2.accepted);
  EXPECT_EQ(o2.reason, RejectReason::InvalidRequest);

  // Every range check the CLI applies holds at admission too, so none of
  // these reaches an executor.
  const std::vector<std::pair<const char*, void (*)(api::RaceOptions&)>>
      bad_values{
          {"share_cap 0", [](api::RaceOptions& o) { o.share_cap(0); }},
          {"tier below glue",
           [](api::RaceOptions& o) { o.glue_lbd(5).tier_lbd(4); }},
          {"bve_budget 0", [](api::RaceOptions& o) { o.bve_budget(0); }},
          {"depth -1", [](api::RaceOptions& o) { o.max_depth(-1); }},
          {"mem_ceiling -1", [](api::RaceOptions& o) { o.mem_ceiling_mb(-1); }},
          {"empty lineup", [](api::RaceOptions& o) { o.policies({}); }},
          {"repeated policy",
           [](api::RaceOptions& o) { o.policies({"dynamic", "dynamic"}); }},
      };
  for (const auto& [name, mutate] : bad_values) {
    api::CheckRequest request = quick_request();
    mutate(request.options);
    const SubmitOutcome o = server.submit(std::move(request));
    EXPECT_FALSE(o.accepted) << name;
    EXPECT_EQ(o.reason, RejectReason::InvalidRequest) << name;
  }
}

TEST(JobServerTest, ShutdownCancelsTheQueueAndRejectsNewWork) {
  ServerConfig cfg;
  cfg.workers = 1;
  JobServer server(cfg);
  const SubmitOutcome running = server.submit(slow_request());
  ASSERT_TRUE(running.accepted);
  spin_until_running(server, running.id);
  const SubmitOutcome queued = server.submit(quick_request());
  ASSERT_TRUE(queued.accepted);

  server.shutdown(/*cancel_running=*/true);

  EXPECT_TRUE(is_terminal(server.poll(running.id)->state));
  EXPECT_EQ(server.poll(queued.id)->state, JobState::Cancelled);
  const SubmitOutcome late = server.submit(quick_request());
  EXPECT_FALSE(late.accepted);
  EXPECT_EQ(late.reason, RejectReason::ShuttingDown);
}

TEST(JobServerTest, ConcurrentClientsAllComplete) {
  ServerConfig cfg;
  cfg.workers = 2;
  JobServer server(cfg);

  constexpr int kClients = 4;
  constexpr int kJobsEach = 3;
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &failures, c] {
      for (int j = 0; j < kJobsEach; ++j) {
        api::CheckRequest req = quick_request();
        req.name = "client" + std::to_string(c) + "-" + std::to_string(j);
        JobOptions opts;
        opts.use_cache = (j % 2 == 0);  // mix cached and forced solves
        const SubmitOutcome out = server.submit(std::move(req), opts);
        if (!out.accepted) {
          ++failures[c];
          continue;
        }
        const auto st = server.wait(out.id, 60.0);
        if (!st || st->state != JobState::Done ||
            st->result.status !=
                api::CheckResult::Status::CounterexampleFound)
          ++failures[c];
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], 0) << c;
  EXPECT_EQ(server.stats().completed,
            static_cast<std::uint64_t>(kClients * kJobsEach));
  EXPECT_EQ(server.stats().queue_depth, 0u);
}

}  // namespace
}  // namespace refbmc::service
