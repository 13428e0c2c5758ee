#include "portfolio/job.hpp"

#include "util/assert.hpp"
#include "util/timer.hpp"

namespace refbmc::portfolio {

JobResult run_job(const Job& job, const std::atomic<bool>* stop) {
  REFBMC_EXPECTS_MSG(job.net != nullptr, "job has no netlist");
  REFBMC_EXPECTS_MSG(job.bad_index < job.net->bad_properties().size(),
                     "job bad_index out of range");
  bmc::EngineConfig cfg = job.config;
  if (stop != nullptr) cfg.stop = stop;

  JobResult out;
  out.name = job.name;
  out.bad_index = job.bad_index;
  out.policy = cfg.policy;

  Timer timer;
  bmc::BmcEngine engine(*job.net, cfg, job.bad_index);
  out.result = engine.run();
  out.wall_time_sec = timer.elapsed_sec();
  return out;
}

}  // namespace refbmc::portfolio
