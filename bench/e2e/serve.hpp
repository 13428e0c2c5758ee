// The serve workload: an in-process JobServer (2 workers) behind
// service::SocketServer on a Unix socket in the working directory,
// driven through service::Client connections.
//
// Traffic is an open loop: seeded Poisson arrivals at three fixed rates,
// one step per rate.  Each step holds a fixed number of arrivals (rate x
// step length) at sorted uniform times — a Poisson process conditioned
// on its count, so two seeds offer the same load.  70% of jobs resubmit
// one of the warm rows (solved before timing starts, each resubmitted
// equally often), so they are cache reads; 30% are fresh rows, so they
// solve and write the cache.  A job's latency runs from the time it was
// due until its client sees the verdict, so a stalled generator shows.
//
// A run plays the whole schedule kReps times, each on a fresh stack with
// an empty cache and on the next window of CPUs, and reports the median
// over the plays — the same rule as the closed-loop rounds.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "closed_loop.hpp"
#include "service/transport.hpp"

namespace e2e::serve {

namespace service = refbmc::service;

/// Offered rates, frozen on the reference machine (4 vCPU) at about 30%,
/// 60% and 90% of the miss-path capacity: ~67 jobs/s when every job
/// misses the cache and solves on the 2 workers (see README.md).  With
/// 70% hits the workers stay mostly idle, so the wire, queue, cache and
/// parser set the hit latency; p90 falls on misses.
inline constexpr double kRates[3] = {20.0, 40.0, 60.0};
/// p90 limit each step is held to for max_rate_jobs_per_s.
inline constexpr double kLatencyLimitMs = 100.0;
inline constexpr int kWorkers = 2;
inline constexpr int kClients = 8;
inline constexpr int kWarmRows = 12;
inline constexpr double kMissShare = 0.3;
inline constexpr int kReps = 5;
/// CPUs each play of the schedule is confined to (see CpuRotation).
inline constexpr std::size_t kCpus = 3;
/// Pause between gauge samples while a play's steps run (see gauge_ms):
/// about 6% of one CPU.
inline constexpr std::chrono::milliseconds kGaugePause{150};

struct Job {
  std::size_t row = 0;  // index into Inputs::rows
  int step = 0;
  double due_s = 0.0;   // from the step's start
};

struct Inputs {
  std::vector<Row> rows;  // warm rows first, then one fresh row per miss
  std::size_t warm = 0;
  std::vector<Job> jobs;  // by step, then due time
  double step_s = 0.0;
  std::uint64_t fnv64 = 0;
};

/// Steps last seconds / (3 kReps + 1): the spare step's worth of time
/// covers the warm-ups and stack restarts.
inline Inputs make_inputs(std::uint64_t seed, double seconds) {
  Rng rng(mix_seed(seed, 0x5e));
  Inputs in;
  in.step_s = seconds / (3 * kReps + 1);
  // Rows must be pairwise distinct, or a "fresh" row would hit the cache.
  std::set<std::string> seen;
  const auto new_row = [&] {
    for (;;) {
      Row row = serve_row(rng, in.rows.size());
      if (seen.insert(row.aiger).second) return row;
    }
  };
  for (int i = 0; i < kWarmRows; ++i) in.rows.push_back(new_row());
  in.warm = in.rows.size();
  std::vector<std::size_t> warm_order(in.warm);
  for (std::size_t i = 0; i < in.warm; ++i) warm_order[i] = i;
  rng.shuffle(warm_order);
  std::size_t hits = 0;
  for (int step = 0; step < 3; ++step) {
    const std::size_t n =
        static_cast<std::size_t>(std::lround(kRates[step] * in.step_s));
    const std::size_t misses = static_cast<std::size_t>(
        std::lround(kMissShare * static_cast<double>(n)));
    std::vector<char> is_miss(n, 0);
    std::fill(is_miss.begin(), is_miss.begin() + misses, 1);
    rng.shuffle(is_miss);
    std::vector<double> due(n);
    for (double& d : due) d = rng.next_double() * in.step_s;
    std::sort(due.begin(), due.end());
    for (std::size_t j = 0; j < n; ++j) {
      Job job;
      job.step = step;
      job.due_s = due[j];
      if (is_miss[j]) {
        job.row = in.rows.size();
        in.rows.push_back(new_row());
      } else {
        job.row = warm_order[hits++ % in.warm];
      }
      in.jobs.push_back(job);
    }
  }
  Fnv64 h;
  for (const Row& r : in.rows) h.row(r);
  for (const Job& j : in.jobs) {
    h.number(static_cast<std::int64_t>(j.row));
    h.number(std::llround(j.due_s * 1e6));
  }
  in.fnv64 = h.value();
  return in;
}

/// The serving stack: job server, socket listener, connected clients.
class Stack {
 public:
  explicit Stack(const std::string& socket_path)
      : server_(config()), socket_(server_, socket_path) {
    std::string error;
    if (!socket_.start(&error))
      throw std::runtime_error("serve: cannot listen: " + error);
    for (int i = 0; i < kClients; ++i) {
      clients_.push_back(std::make_unique<service::Client>());
      if (!clients_.back()->connect(socket_path, &error))
        throw std::runtime_error("serve: cannot connect: " + error);
    }
  }
  ~Stack() {
    clients_.clear();  // handlers see EOF and end
    socket_.stop();
    server_.shutdown();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  service::JobServer& server() { return server_; }
  service::Client& client(int i) {
    return *clients_[static_cast<std::size_t>(i)];
  }

 private:
  static service::ServerConfig config() {
    service::ServerConfig c;
    c.workers = kWorkers;
    // Room for every row of a run, so a resubmission is always a hit.
    c.cache_capacity = 4096;
    return c;
  }

  service::JobServer server_;
  service::SocketServer socket_;
  std::vector<std::unique_ptr<service::Client>> clients_;
};

struct JobRecord {
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point done{};
  int client = 0;
  std::string error;  // transport error, error response or rejection
  service::JobId id = 0;
  std::string state;
  std::string verdict;
  int cex_depth = -1;
  bool from_cache = false;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  std::optional<bmc::Trace> trace;

  double latency_ms() const {
    return error.empty() ? ms_between(due, done) : kFailedLatencyMs;
  }
};

inline std::vector<bool> bits_of(const std::string& s) {
  std::vector<bool> bits;
  bits.reserve(s.size());
  for (const char c : s) bits.push_back(c == '1');
  return bits;
}

/// Decodes a submit(wait) response into `rec`.
inline void read_response(const service::JsonValue& v, JobRecord& rec) {
  if (!v.get_bool("ok")) {
    rec.error = "error response: " + v.get_string("error");
    return;
  }
  rec.id = v.get_uint64("id");
  if (!v.get_bool("accepted")) {
    rec.error = "rejected: " + v.get_string("reason");
    return;
  }
  const service::JsonValue* status = v.find("status");
  if (status == nullptr) {
    rec.error = "no status in response";
    return;
  }
  rec.state = status->get_string("state");
  rec.queue_ms = status->get_number("queue_sec") * 1e3;
  rec.run_ms = status->get_number("run_sec") * 1e3;
  const service::JsonValue* result = status->find("result");
  if (result == nullptr) return;
  rec.verdict = result->get_string("verdict");
  rec.from_cache = result->get_bool("from_cache");
  rec.cex_depth = static_cast<int>(result->get_int("counterexample_depth", -1));
  if (const service::JsonValue* t = result->find("trace")) {
    bmc::Trace trace;
    trace.depth = static_cast<int>(t->get_int("depth"));
    trace.bad_frame = static_cast<int>(t->get_int("bad_frame"));
    trace.initial_latches = bits_of(t->get_string("initial_latches"));
    if (const service::JsonValue* frames = t->find("inputs"))
      for (const service::JsonValue& f : frames->items())
        trace.inputs.push_back(bits_of(f.as_string()));
    rec.trace = std::move(trace);
  }
}

/// Submits rows[j] at base + due_s[j] from kClients threads: each takes
/// the next job, sleeps until it is due, submits with a server-side wait
/// and records the round trip.
inline std::vector<JobRecord> run_jobs(Stack& stack, const Inputs& in,
                                       const std::vector<std::size_t>& rows,
                                       const std::vector<double>& due_s,
                                       Clock::time_point base) {
  std::vector<JobRecord> recs(rows.size());
  std::atomic<std::size_t> next{0};
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        for (;;) {
          const std::size_t j = next.fetch_add(1);
          if (j >= rows.size()) return;
          JobRecord& rec = recs[j];
          rec.client = c;
          const Row& row = in.rows[rows[j]];
          rec.due = base + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(due_s[j]));
          std::this_thread::sleep_until(rec.due);
          service::Client::SubmitArgs args;
          args.aiger = row.aiger;
          args.name = row.name;
          args.wait = true;
          args.options = options_for(Workload::Serve, row.bound);
          rec.sent = Clock::now();
          try {
            std::string error;
            const auto resp = stack.client(c).submit(args, &error);
            rec.done = Clock::now();
            if (resp)
              read_response(*resp, rec);
            else
              rec.error = "transport: " + error;
          } catch (const std::exception& e) {
            rec.done = Clock::now();
            rec.error = std::string("exception: ") + e.what();
          }
        }
      });
  }
  return recs;
}

/// One play of the schedule.
struct Rep {
  std::vector<JobRecord> warm;
  std::vector<JobRecord> jobs;  // parallel to Inputs::jobs
  Clock::time_point step_start[3] = {};
  double step_span_s[3] = {};   // step start to its last verdict
  double wall_s = 0.0;          // the three steps
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;     // the stack's whole life
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t rejected = 0;
  GaugeTimeline gauge;          // sampled beside the steps
};

inline std::uint64_t server_counter(service::Client& c, const char* key) {
  const auto v = c.stats();
  return v ? v->get_uint64(key) : 0;
}

/// Warm-up (untimed: the warm rows are solved once, in parallel), then
/// the three rate steps back to back, each started once the previous
/// step's last verdict is in.
inline Rep run_rep(Stack& stack, const Inputs& in) {
  Rep rep;
  {
    std::vector<std::size_t> rows(in.warm);
    for (std::size_t i = 0; i < in.warm; ++i) rows[i] = i;
    rep.warm = run_jobs(stack, in, rows, std::vector<double>(in.warm, 0.0),
                        Clock::now());
  }
  service::Client& probe = stack.client(0);
  const std::uint64_t hits0 = server_counter(probe, "cache_hits");
  const std::uint64_t misses0 = server_counter(probe, "cache_misses");
  const std::uint64_t rejected0 = server_counter(probe, "rejected");
  const Clock::time_point start = Clock::now();
  const double cpu0 = cpu_seconds();
  // The gauge samples from a thread of its own while the steps run; its
  // CPU time is taken out of the play's.
  double gauge_cpu_s = 0.0;
  std::jthread gauge([&](std::stop_token stop) {
    const double t0 = thread_cpu_seconds();
    while (!stop.stop_requested()) {
      const Clock::time_point at = Clock::now();
      const double ms = gauge_ms();
      rep.gauge.add(at + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(ms / 2)),
                    ms);
      std::this_thread::sleep_for(kGaugePause);
    }
    gauge_cpu_s = thread_cpu_seconds() - t0;
  });
  for (int s = 0; s < 3; ++s) {
    std::vector<std::size_t> rows;
    std::vector<double> due;
    for (const Job& j : in.jobs)
      if (j.step == s) {
        rows.push_back(j.row);
        due.push_back(j.due_s);
      }
    const Clock::time_point base = Clock::now() + std::chrono::milliseconds(5);
    rep.step_start[s] = base;
    Clock::time_point last = base;
    for (JobRecord& r : run_jobs(stack, in, rows, due, base)) {
      last = std::max(last, r.done);
      rep.jobs.push_back(std::move(r));
    }
    rep.step_span_s[s] = std::chrono::duration<double>(last - base).count();
  }
  rep.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  gauge.request_stop();
  gauge.join();
  rep.cpu_s = cpu_seconds() - cpu0 - gauge_cpu_s;
  rep.hits = server_counter(probe, "cache_hits") - hits0;
  rep.misses = server_counter(probe, "cache_misses") - misses0;
  rep.rejected = server_counter(probe, "rejected") - rejected0;
  return rep;
}

inline std::vector<double> latencies(const Rep& rep) {
  std::vector<double> out;
  for (const JobRecord& r : rep.jobs) out.push_back(r.latency_ms());
  return out;
}

/// Each job's latency divided by the slowdown the gauge read around the
/// middle of it (see GaugeTimeline).
inline std::vector<double> scaled_latencies(const Rep& rep) {
  std::vector<double> out;
  for (const JobRecord& r : rep.jobs)
    out.push_back(r.latency_ms() /
                  rep.gauge.slowdown_at(r.due + (r.done - r.due) / 2));
  return out;
}

/// One rate step of a play, from its jobs' latencies laid on the schedule.
struct Step {
  double offered_per_s = 0.0;  // jobs sent / step start to last send
  double within_per_s = 0.0;   // jobs within the limit / step's span
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double backlog_max = 0.0;    // jobs due but not yet answered
  bool backlog_grows = false;  // last third of the step vs first
};

inline std::vector<Step> steps_of(const Inputs& in, const Rep& rep) {
  std::vector<Step> steps;
  for (int s = 0; s < 3; ++s) {
    std::vector<double> lat, due, done;  // done: due + latency
    Clock::time_point last_sent = rep.step_start[s];
    std::size_t within = 0;
    for (std::size_t j = 0; j < in.jobs.size(); ++j)
      if (in.jobs[j].step == s) {
        const double ms = rep.jobs[j].latency_ms();
        lat.push_back(ms);
        due.push_back(in.jobs[j].due_s);
        done.push_back(in.jobs[j].due_s + ms / 1e3);
        last_sent = std::max(last_sent, rep.jobs[j].sent);
        within += ms <= kLatencyLimitMs ? 1 : 0;
      }
    Step st;
    st.offered_per_s =
        ratio(static_cast<double>(lat.size()),
              std::chrono::duration<double>(last_sent - rep.step_start[s])
                  .count());
    st.within_per_s = ratio(static_cast<double>(within), rep.step_span_s[s]);
    st.p50_ms = percentile(lat, 0.5);
    st.p90_ms = percentile(lat, 0.9);
    std::sort(done.begin(), done.end());
    std::vector<double> backlog;
    for (std::size_t i = 0; i < due.size(); ++i) {
      const auto answered =
          std::upper_bound(done.begin(), done.end(), due[i]) - done.begin();
      backlog.push_back(static_cast<double>(i + 1) -
                        static_cast<double>(answered));
    }
    const std::size_t third = backlog.size() / 3;
    double first = 0.0, final = 0.0;
    for (std::size_t i = 0; i < third; ++i) {
      first += backlog[i];
      final += backlog[backlog.size() - 1 - i];
    }
    if (!backlog.empty())
      st.backlog_max = *std::max_element(backlog.begin(), backlog.end());
    st.backlog_grows =
        third > 0 && final > 2.0 * first + static_cast<double>(third);
    steps.push_back(st);
  }
  return steps;
}

/// Correctness of every answered job (warm-ups included), judged after
/// the run: replays are the benchmark's own work, not serving latency.
struct Verdicts {
  std::uint64_t attempted = 0;
  std::uint64_t failures = 0;
  double validate_ms_sum = 0.0;
  std::uint64_t validated = 0;
};

inline void judge_jobs(const Inputs& in, const std::vector<std::size_t>& rows,
                       const std::vector<JobRecord>& recs, Verdicts& out) {
  using Status = api::CheckResult::Status;
  for (std::size_t j = 0; j < recs.size(); ++j) {
    const JobRecord& rec = recs[j];
    const Row& row = in.rows[rows[j]];
    ++out.attempted;
    std::string why = rec.error;
    if (why.empty() && rec.state != "done") why = "job ended " + rec.state;
    if (why.empty()) {
      Status status = Status::ResourceLimit;
      if (rec.verdict == "cex") status = Status::CounterexampleFound;
      if (rec.verdict == "bound") status = Status::BoundReached;
      const Clock::time_point t0 = Clock::now();
      try {
        why = judge(row, status, rec.cex_depth,
                    rec.trace ? &*rec.trace : nullptr);
      } catch (const std::exception& e) {
        why = std::string("exception: ") + e.what();
      }
      if (rec.trace) {
        out.validate_ms_sum += ms_between(t0, Clock::now());
        ++out.validated;
      }
    }
    if (!why.empty()) {
      ++out.failures;
      std::fprintf(stderr, "FAIL %s: %s\n", row.name.c_str(), why.c_str());
    }
  }
}

inline void judge_rep(const Inputs& in, const Rep& rep, Verdicts& v) {
  std::vector<std::size_t> warm_rows(in.warm), job_rows;
  for (std::size_t i = 0; i < in.warm; ++i) warm_rows[i] = i;
  for (const Job& j : in.jobs) job_rows.push_back(j.row);
  judge_jobs(in, warm_rows, rep.warm, v);
  judge_jobs(in, job_rows, rep.jobs, v);
}

/// Every metric is the median over the plays (see report_rounds); a play's
/// latency percentiles cover all of its jobs.
inline void report_serve_end_to_end(MetricSheet& m, const Inputs& in,
                                    const std::vector<Rep>& reps) {
  std::vector<Round> rounds;
  std::vector<std::vector<Step>> steps;  // by play
  std::vector<double> max_rate;
  double wall_s = 0.0;
  for (const Rep& rep : reps) {
    const std::vector<double> lat = latencies(rep);
    steps.push_back(steps_of(in, rep));
    const std::vector<double> scaled = scaled_latencies(rep);
    Round r;
    r.slowdown = rep.gauge.mean_slowdown();
    r.clock.p50_ms = percentile(lat, 0.5);
    r.clock.p90_ms = percentile(lat, 0.9);
    r.clock.per_s = steps.back()[2].within_per_s;
    r.clock.cpu_per_check_ms =
        ratio(rep.cpu_s * 1e3, static_cast<double>(in.jobs.size()));
    // The rate is the offered one, whatever the host's speed.
    r.times.per_s = r.clock.per_s;
    r.times.p50_ms = percentile(scaled, 0.5);
    r.times.p90_ms = percentile(scaled, 0.9);
    r.times.cpu_per_check_ms = r.clock.cpu_per_check_ms / r.slowdown;
    r.peak_rss_mb = rep.peak_rss_mb;
    rounds.push_back(r);
    double rate = 0.0;
    for (const Step& st : steps.back())
      if (st.p90_ms <= kLatencyLimitMs && !st.backlog_grows)
        rate = std::max(rate, st.offered_per_s);
    max_rate.push_back(rate);
    wall_s += rep.wall_s;
  }
  report_rounds(m, rounds);
  m.add("max_rate_jobs_per_s", median(max_rate), "1/s");
  for (std::size_t s = 0; s < 3; ++s) {
    const auto med = [&steps, s](double Step::*field) {
      std::vector<double> v;
      for (const auto& play : steps) v.push_back(play[s].*field);
      return median(std::move(v));
    };
    double grew = 0.0;
    for (const auto& play : steps) grew += play[s].backlog_grows ? 1.0 : 0.0;
    const std::string p = "serve.step" + std::to_string(s + 1) + ".";
    m.add(p + "offered_jobs_per_s", med(&Step::offered_per_s), "1/s");
    m.add(p + "verdict_p50_ms", med(&Step::p50_ms), "ms");
    m.add(p + "verdict_p90_ms", med(&Step::p90_ms), "ms");
    m.add(p + "within_limit_per_s", med(&Step::within_per_s), "1/s");
    m.add(p + "backlog_max", med(&Step::backlog_max), "count");
    m.add(p + "backlog_grew", grew, "count");
  }
  m.add("latency_limit_ms", kLatencyLimitMs, "ms");
  m.add("jobs", static_cast<double>(in.jobs.size()), "count");
  m.add("measured_s", wall_s, "s");
}

inline void report_serve_per_layer(MetricSheet& m, Stack& stack,
                                   const Inputs& in, const Rep& rep,
                                   const Verdicts& v) {
  std::vector<double> rtt, overhead, queue, run_miss, lag;
  DepthTotals totals;
  std::uint64_t solved = 0;
  double run_ms_sum = 0.0;
  for (const JobRecord& r : rep.jobs) {
    if (!r.error.empty()) continue;
    rtt.push_back(ms_between(r.sent, r.done));
    overhead.push_back(r.latency_ms() - r.queue_ms - r.run_ms);
    queue.push_back(r.queue_ms);
    lag.push_back(ms_between(r.due, r.sent));
    if (r.from_cache) continue;
    run_miss.push_back(r.run_ms);
    // The full result, per-depth series included, read in process.
    if (const auto st = stack.server().poll(r.id)) {
      totals.add_check(st->result.per_depth, st->result.peak_mem_bytes);
      ++solved;
      run_ms_sum += r.run_ms;
    }
  }
  // The parse every submission pays on the server, timed here on the
  // same texts.
  double parse_ms = 0.0;
  for (const Row& r : in.rows) {
    const Clock::time_point t0 = Clock::now();
    (void)refbmc::model::read_aiger_string(r.aiger);
    parse_ms += ms_between(t0, Clock::now());
  }
  double backlog_max = 0.0;
  for (const Step& s : steps_of(in, rep))
    backlog_max = std::max(backlog_max, s.backlog_max);

  m.add("model.parse_ms", ratio(parse_ms, static_cast<double>(in.rows.size())),
        "ms");
  totals.report(m, solved, run_ms_sum);
  m.add("portfolio.cpu_util", ratio(rep.cpu_s, rep.wall_s * kWorkers), "frac");
  m.add("sim.validate_ms",
        ratio(v.validate_ms_sum, static_cast<double>(v.validated)), "ms");
  m.add("service.submit_rtt_ms", percentile(rtt, 0.5), "ms");
  m.add("service.overhead_ms", percentile(overhead, 0.5), "ms");
  m.add("service.queue_p50_ms", percentile(queue, 0.5), "ms");
  m.add("service.queue_p90_ms", percentile(queue, 0.9), "ms");
  m.add("service.run_ms", percentile(run_miss, 0.5), "ms");
  m.add("service.cache_hit_frac",
        ratio(static_cast<double>(rep.hits),
              static_cast<double>(rep.hits + rep.misses + rep.rejected)),
        "frac");
  m.add("service.rejected", static_cast<double>(rep.rejected), "count");
  m.add("service.backlog_max", backlog_max, "count");
  m.add("service.gen_lag_p90_ms", percentile(lag, 0.9), "ms");
}

/// Spans of a traced repetition: job > service.submit > derived
/// {service.queue, service.run}.  The server-side queue and run times sit
/// in the middle of the round trip, the wire and parsing split around them.
inline void emit_serve_spans(SpanLog& log, const Rep& rep) {
  std::uint64_t job = 0;
  for (const JobRecord& r : rep.jobs) {
    ++job;
    if (!r.error.empty()) continue;
    Span root;
    root.name = "job";
    root.check = job;
    root.id = log.next_id();
    root.lane = r.client + 1;
    root.start_ns = log.ns(r.due);
    root.end_ns = log.ns(r.done);
    log.add(root);
    Span sub = root;
    sub.name = "service.submit";
    sub.id = log.next_id();
    sub.parent = root.id;
    sub.start_ns = log.ns(r.sent);
    log.add(sub);
    const auto ns = [](double ms) {
      return static_cast<std::int64_t>(std::llround(ms * 1e6));
    };
    // Not clipped to the round trip: server times that do not fit in it
    // leave their parent, and check_trace.py reports that.
    const std::int64_t rtt = sub.end_ns - sub.start_ns;
    const std::int64_t served = ns(r.queue_ms) + ns(r.run_ms);
    Span window = sub;
    window.start_ns = sub.start_ns + (rtt - served) / 2;
    window.end_ns = window.start_ns + served;
    log.add_derived_tail(window, {{"service.queue", ns(r.queue_ms)},
                                  {"service.run", ns(r.run_ms)}});
  }
}

inline std::string socket_path() {
  return "bench_e2e_" + std::to_string(::getpid()) + ".sock";
}

}  // namespace e2e::serve
