#include "service/job_server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "portfolio/scheduler.hpp"
#include "util/log.hpp"

namespace refbmc::service {

namespace {

void bump(const char* name, std::uint64_t n = 1) {
  if (obs::metrics_active()) obs::metrics().counter(name).add(n);
}
void observe(const char* name, std::uint64_t v) {
  if (obs::metrics_active()) obs::metrics().histogram(name).observe(v);
}

}  // namespace

std::optional<Priority> parse_priority(const std::string& name) {
  if (name == "high") return Priority::High;
  if (name == "normal") return Priority::Normal;
  if (name == "batch") return Priority::Batch;
  return std::nullopt;
}

JobServer::JobServer(ServerConfig config)
    : config_(config), cache_(config.cache_capacity) {
  REFBMC_EXPECTS_MSG(config_.workers >= 1,
                     "job server needs at least one executor");
  executors_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w)
    executors_.emplace_back([this] { executor_main(); });
}

JobServer::~JobServer() { shutdown(/*cancel_running=*/true); }

SubmitOutcome JobServer::submit(api::CheckRequest request, JobOptions opts) {
  SubmitOutcome out;

  // Validate OUTSIDE the lock: resolve() checks ranges and parses policy
  // / mode names, the same validation the CLI applies — a malformed
  // request is the client's problem and must not poison an executor
  // later.
  RejectReason invalid = RejectReason::None;
  if (request.bad_index >= request.net.bad_properties().size()) {
    invalid = RejectReason::InvalidRequest;
  } else {
    try {
      (void)request.options.resolve();
    } catch (const std::invalid_argument&) {
      invalid = RejectReason::InvalidRequest;
    }
  }

  const std::lock_guard<std::mutex> lock(mu_);
  const JobId id = next_id_++;
  auto rec = std::make_unique<JobRecord>();
  rec->id = id;
  rec->request = std::move(request);
  rec->opts = opts;
  if (rec->opts.deadline_sec <= 0.0)
    rec->opts.deadline_sec = config_.default_deadline_sec;
  rec->submit_us = obs::monotonic_now_us();
  if (rec->opts.deadline_sec > 0.0)
    rec->deadline_us = rec->submit_us + static_cast<std::uint64_t>(
                                            rec->opts.deadline_sec * 1e6);

  out.id = id;
  if (invalid != RejectReason::None) {
    out.reason = invalid;
  } else if (shutting_down_) {
    out.reason = RejectReason::ShuttingDown;
  } else if (queued_ >= config_.queue_capacity) {
    out.reason = RejectReason::QueueFull;
  } else {
    out.accepted = true;
  }

  if (!out.accepted) {
    rec->state = JobState::Rejected;
    rec->reject = out.reason;
    rec->end_us = rec->submit_us;
    ++stats_.rejected;
    bump("server.rejected");
  } else {
    ++stats_.submitted;
    ++queued_;
    queues_[static_cast<std::size_t>(opts.priority)].push_back(id);
    bump("server.submitted");
    observe("server.queue_depth", queued_);
  }
  jobs_[id] = std::move(rec);
  if (out.accepted) work_cv_.notify_one();
  return out;
}

void JobServer::executor_main() {
  set_log_thread_tag("serve");
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      if (shutting_down_) return true;
      for (const auto& q : queues_)
        if (!q.empty()) return true;
      return false;
    });
    JobId id = 0;
    for (auto& q : queues_) {
      if (q.empty()) continue;
      id = q.front();
      q.pop_front();
      break;
    }
    if (id == 0) {
      if (shutting_down_) return;
      continue;
    }
    --queued_;
    JobRecord& rec = *jobs_.at(id);
    if (rec.state != JobState::Queued) continue;  // raced with cancel
    const std::uint64_t now = obs::monotonic_now_us();
    if (shutting_down_) {
      rec.state = JobState::Cancelled;
      rec.end_us = now;
      ++stats_.cancelled;
      done_cv_.notify_all();
      continue;
    }
    if (rec.deadline_us != 0 && now >= rec.deadline_us) {
      // Expired while still queued: evicted without ever running.
      rec.state = JobState::DeadlineExceeded;
      rec.end_us = now;
      ++stats_.deadline_evictions;
      bump("server.deadline_evictions");
      done_cv_.notify_all();
      continue;
    }
    rec.state = JobState::Running;
    rec.start_us = now;
    ++running_;
    lock.unlock();
    run_job(rec);
    lock.lock();
  }
}

double JobServer::remaining_deadline_sec(const JobRecord& rec) const {
  if (rec.deadline_us == 0) return -1.0;
  const std::uint64_t now = obs::monotonic_now_us();
  if (now >= rec.deadline_us) return 0.0;
  return static_cast<double>(rec.deadline_us - now) * 1e-6;
}

void JobServer::run_job(JobRecord& rec) {
  const CacheKey key = cache_key(rec.request);

  if (rec.opts.use_cache) {
    if (auto hit = cache_.lookup(key)) {
      rec.result = std::move(*hit);
      rec.depths_completed = rec.result.last_completed_depth + 1;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        ++stats_.cache_hits;
      }
      bump("server.cache_hits");
      finish(rec, JobState::Done);
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.cache_misses;
    }
    bump("server.cache_misses");
  }

  const double deadline_left = remaining_deadline_sec(rec);
  if (rec.deadline_us != 0 && deadline_left <= 0.0) {
    finish(rec, JobState::DeadlineExceeded);
    return;
  }

  api::CheckHooks hooks;
  hooks.stop = &rec.stop;
  hooks.deadline_sec = deadline_left;
  hooks.on_depth = [this, &rec](const bmc::DepthStats& d) {
    const std::lock_guard<std::mutex> lock(mu_);
    ProgressEvent e;
    e.seq = rec.events.size() + 1;
    e.depth = d.depth;
    e.result = d.result;
    e.decisions = d.decisions;
    e.conflicts = d.conflicts;
    e.time_sec = d.time_sec;
    rec.events.push_back(e);
    rec.depths_completed = std::max(rec.depths_completed, d.depth + 1);
  };

  try {
    rec.result = api::check(rec.request, hooks);
  } catch (const std::exception& e) {
    // Admission validated the request, so this is unexpected — report
    // the job as resource-limited rather than killing the executor.
    REFBMC_WARN() << "job " << rec.id << " failed: " << e.what();
    rec.result = api::CheckResult{};
  }

  // Classify how the race ended.  A definitive verdict is Done no
  // matter what raced it; otherwise an explicit cancel wins over a
  // memory-ceiling breach (the engines flag it on the result), which
  // wins over a deadline, which wins over the job's own budget.
  JobState state = JobState::Done;
  if (rec.result.status == api::CheckResult::Status::ResourceLimit) {
    if (rec.stop.load(std::memory_order_acquire)) {
      state = JobState::Cancelled;
    } else if (rec.result.mem_limit_hit) {
      state = JobState::MemLimitExceeded;
    } else if (rec.deadline_us != 0 &&
               obs::monotonic_now_us() >= rec.deadline_us) {
      state = JobState::DeadlineExceeded;
    }
  }

  if (state == JobState::Done && rec.opts.use_cache)
    cache_.insert(key, rec.result);

  finish(rec, state);
}

void JobServer::finish(JobRecord& rec, JobState state) {
  const std::lock_guard<std::mutex> lock(mu_);
  rec.state = state;
  rec.end_us = obs::monotonic_now_us();
  if (rec.start_us != 0) --running_;
  switch (state) {
    case JobState::Done:
      ++stats_.completed;
      bump("server.completed");
      break;
    case JobState::Cancelled:
      ++stats_.cancelled;
      bump("server.cancelled");
      break;
    case JobState::DeadlineExceeded:
      ++stats_.deadline_evictions;
      bump("server.deadline_evictions");
      break;
    case JobState::MemLimitExceeded:
      ++stats_.mem_limit_stops;
      bump("server.mem_limit_stops");
      break;
    default:
      break;
  }
  if (rec.start_us != 0) {
    observe("server.queue_us", rec.start_us - rec.submit_us);
    observe("server.run_us", rec.end_us - rec.start_us);
  }
  done_cv_.notify_all();
}

namespace {

JobStatus status_of(const JobId id,
                    const Priority priority, const std::string& name,
                    const JobState state, const RejectReason reject,
                    const int depths, const std::size_t events,
                    const std::uint64_t submit_us,
                    const std::uint64_t start_us, const std::uint64_t end_us,
                    const api::CheckResult& result) {
  JobStatus s;
  s.id = id;
  s.state = state;
  s.reject = reject;
  s.priority = priority;
  s.name = name;
  s.depths_completed = depths;
  s.events_available = events;
  const std::uint64_t now = obs::monotonic_now_us();
  const std::uint64_t queue_end =
      start_us != 0 ? start_us : (end_us != 0 ? end_us : now);
  s.queue_sec = static_cast<double>(queue_end - submit_us) * 1e-6;
  if (start_us != 0) {
    const std::uint64_t run_end = end_us != 0 ? end_us : now;
    s.run_sec = static_cast<double>(run_end - start_us) * 1e-6;
  }
  if (is_terminal(state)) s.result = result;
  return s;
}

}  // namespace

std::optional<JobStatus> JobServer::poll(JobId id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const JobRecord& r = *it->second;
  return status_of(r.id, r.opts.priority, r.request.name, r.state,
                   r.reject, r.depths_completed, r.events.size(), r.submit_us,
                   r.start_us, r.end_us, r.result);
}

std::vector<ProgressEvent> JobServer::events(JobId id,
                                             std::uint64_t after_seq) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<ProgressEvent> out;
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return out;
  for (const ProgressEvent& e : it->second->events)
    if (e.seq > after_seq) out.push_back(e);
  return out;
}

bool JobServer::cancel(JobId id) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  JobRecord& rec = *it->second;
  if (is_terminal(rec.state)) return false;
  if (rec.state == JobState::Queued) {
    auto& q = queues_[static_cast<std::size_t>(rec.opts.priority)];
    const auto pos = std::find(q.begin(), q.end(), id);
    if (pos != q.end()) {
      q.erase(pos);
      --queued_;
    }
    rec.state = JobState::Cancelled;
    rec.end_us = obs::monotonic_now_us();
    ++stats_.cancelled;
    bump("server.cancelled");
    done_cv_.notify_all();
    return true;
  }
  // Running: ride the race's cooperative stop; the executor classifies
  // and finishes the job when the engines wind down.
  rec.stop.store(true, std::memory_order_release);
  return true;
}

std::optional<JobStatus> JobServer::wait(JobId id, double timeout_sec) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  JobRecord& rec = *it->second;
  const auto terminal = [&rec] { return is_terminal(rec.state); };
  if (timeout_sec > 0.0) {
    if (!done_cv_.wait_for(lock,
                           std::chrono::duration<double>(timeout_sec),
                           terminal))
      return std::nullopt;
  } else {
    done_cv_.wait(lock, terminal);
  }
  return status_of(rec.id, rec.opts.priority, rec.request.name,
                   rec.state, rec.reject, rec.depths_completed,
                   rec.events.size(), rec.submit_us, rec.start_us, rec.end_us,
                   rec.result);
}

JobServer::Stats JobServer::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.queue_depth = queued_;
  s.running = running_;
  return s;
}

void JobServer::shutdown(bool cancel_running) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_ && executors_.empty()) return;
    shutting_down_ = true;
    // Queued jobs will never run: cancel them here so waiting clients
    // unblock immediately.
    for (auto& q : queues_) {
      for (const JobId id : q) {
        JobRecord& rec = *jobs_.at(id);
        if (rec.state != JobState::Queued) continue;
        rec.state = JobState::Cancelled;
        rec.end_us = obs::monotonic_now_us();
        ++stats_.cancelled;
      }
      q.clear();
    }
    queued_ = 0;
    if (cancel_running)
      for (auto& [id, rec] : jobs_)
        if (rec->state == JobState::Running)
          rec->stop.store(true, std::memory_order_release);
    work_cv_.notify_all();
    done_cv_.notify_all();
  }
  for (auto& t : executors_) t.join();
  executors_.clear();
}

}  // namespace refbmc::service
