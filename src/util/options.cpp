#include "util/options.hpp"

#include <cstdlib>
#include <stdexcept>

namespace refbmc {

Options Options::parse(int argc, const char* const* argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      opts.positionals_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      opts.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is another option or absent,
    // in which case it is a boolean flag.
    const bool has_value =
        i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
    opts.values_[arg] = has_value ? std::string(argv[++i]) : std::string("1");
  }
  return opts;
}

bool Options::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Options::get(const std::string& name,
                         const std::string& def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

int Options::get_int(const std::string& name, int def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  try {
    return std::stoi(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + name +
                                " expects an integer, got '" + it->second +
                                "'");
  }
}

double Options::get_double(const std::string& name, double def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + name +
                                " expects a number, got '" + it->second + "'");
  }
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> items;
  std::string::size_type pos = 0;
  while (pos <= csv.size()) {
    const auto comma = csv.find(',', pos);
    const auto end = comma == std::string::npos ? csv.size() : comma;
    if (end > pos) items.push_back(csv.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return items;
}

PortfolioConfig PortfolioConfig::from_options(const Options& opts) {
  PortfolioConfig cfg;
  if (opts.has("policies")) cfg.policies = split_csv(opts.get("policies"));
  cfg.max_depth = opts.get_int("depth", cfg.max_depth);
  cfg.budget_sec = opts.get_double("budget", cfg.budget_sec);
  cfg.incremental = opts.get_bool("incremental", cfg.incremental);
  cfg.simplify = opts.get_bool("simplify", cfg.simplify);
  cfg.glue_lbd = opts.get_int("glue-lbd", cfg.glue_lbd);
  cfg.tier_lbd = opts.get_int("tier-lbd", cfg.tier_lbd);
  cfg.share = opts.get_bool("share", cfg.share);
  cfg.share_lbd = opts.get_int("share-lbd", cfg.share_lbd);
  cfg.share_size = opts.get_int("share-size", cfg.share_size);
  cfg.share_cap = opts.get_int("share-cap", cfg.share_cap);
  cfg.core_weighting = opts.get("core-weighting", cfg.core_weighting);
  cfg.preprocess = opts.get_bool("preprocess", cfg.preprocess);
  cfg.bve_budget = opts.get_int("bve-budget", cfg.bve_budget);
  cfg.mem_ceiling_mb = opts.get_int("mem-ceiling", cfg.mem_ceiling_mb);
  cfg.trace_file = opts.get("trace", cfg.trace_file);
  cfg.trace_buffer_kb = opts.get_int("trace-buffer-kb", cfg.trace_buffer_kb);
  cfg.metrics_file = opts.get("metrics", cfg.metrics_file);
  cfg.validate();
  return cfg;
}

void PortfolioConfig::validate() const {
  if (policies.empty())
    throw std::invalid_argument("option --policies expects a non-empty "
                                "comma-separated list");
  if (max_depth < 0)
    throw std::invalid_argument("option --depth expects a value >= 0");
  if (glue_lbd < 0 || tier_lbd < glue_lbd)
    throw std::invalid_argument(
        "option --tier-lbd expects a value >= --glue-lbd >= 0");
  if (share_lbd < 0 || share_size < 0)
    throw std::invalid_argument(
        "options --share-lbd / --share-size expect values >= 0");
  if (share_cap < 1)
    throw std::invalid_argument("option --share-cap expects a value >= 1");
  if (bve_budget < 1)
    throw std::invalid_argument("option --bve-budget expects a value >= 1");
  if (mem_ceiling_mb < 0)
    throw std::invalid_argument("option --mem-ceiling expects a value >= 0");
  if (trace_buffer_kb < 1)
    throw std::invalid_argument("option --trace-buffer-kb expects a value >= 1");
}

bool Options::get_bool(const std::string& name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("option --" + name +
                              " expects a boolean, got '" + v + "'");
}

}  // namespace refbmc
