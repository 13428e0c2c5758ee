// Portfolio work units.
//
// A Job is one self-contained BMC problem: a (netlist, bad_index) pair
// plus the engine configuration to check it with.  A race expands one
// instance into one job per ordering policy, runs them concurrently,
// and the first definitive verdict wins (scheduler.hpp).
//
// Jobs hold a *pointer* to the netlist: the caller owns the model and
// must keep it alive until the job returns.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>

#include "bmc/engine.hpp"
#include "model/netlist.hpp"

namespace refbmc::portfolio {

struct Job {
  const model::Netlist* net = nullptr;  // not owned; must outlive the run
  std::size_t bad_index = 0;
  std::string name;  // label for reports (model name, property name, ...)
  bmc::EngineConfig config;
};

/// Outcome of one executed job.
struct JobResult {
  std::string name;
  std::size_t bad_index = 0;
  bmc::OrderingPolicy policy = bmc::OrderingPolicy::Baseline;
  bmc::BmcResult result;
  double wall_time_sec = 0.0;
};

inline const char* to_string(bmc::BmcResult::Status s) {
  switch (s) {
    case bmc::BmcResult::Status::CounterexampleFound: return "cex";
    case bmc::BmcResult::Status::BoundReached: return "bound";
    case bmc::BmcResult::Status::ResourceLimit: return "limit";
  }
  REFBMC_ASSERT_MSG(false, "invalid BmcResult::Status value");
}

/// Runs `job` to completion (or cancellation) on the calling thread.
/// When `stop` is non-null it *replaces* the job's own
/// EngineConfig::stop, so a race-owned flag can cut every entrant at
/// once.
JobResult run_job(const Job& job, const std::atomic<bool>* stop = nullptr);

}  // namespace refbmc::portfolio
