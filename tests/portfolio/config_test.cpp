// The CLI-to-scheduler configuration path: policy name round-trips,
// PortfolioConfig parsing, and resolution into engine-level types.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "portfolio/scheduler.hpp"
#include "util/options.hpp"

namespace refbmc::portfolio {
namespace {

using bmc::OrderingPolicy;

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(PolicyNameTest, ToStringParseRoundTrip) {
  for (const OrderingPolicy p : bmc::all_policies()) {
    const auto parsed = bmc::parse_policy(bmc::to_string(p));
    ASSERT_TRUE(parsed.has_value()) << bmc::to_string(p);
    EXPECT_EQ(*parsed, p);
  }
}

TEST(PolicyNameTest, EveryPolicyIsReachableThroughTheCli) {
  // The sweep that caught Evsids riding in without a CLI spelling: every
  // enum value must round-trip through the *full* CLI path —
  // PortfolioConfig policy names into resolve() — not just parse_policy.
  std::string csv;
  for (const OrderingPolicy p : bmc::all_policies()) {
    if (!csv.empty()) csv += ",";
    csv += bmc::to_string(p);
  }
  const PortfolioConfig cfg =
      PortfolioConfig::from_options(parse({"--policies", csv.c_str()}));
  const ResolvedPortfolio r = resolve(cfg);
  ASSERT_EQ(r.policies.size(), bmc::all_policies().size());
  for (std::size_t i = 0; i < r.policies.size(); ++i)
    EXPECT_EQ(r.policies[i], bmc::all_policies()[i]);
  // And names are unique — two policies printing alike would make the
  // round-trip ambiguous.
  for (const OrderingPolicy p : bmc::all_policies())
    for (const OrderingPolicy q : bmc::all_policies())
      if (p != q) {
        EXPECT_STRNE(bmc::to_string(p), bmc::to_string(q));
      }
}

TEST(PolicyNameTest, UnknownNamesAreRejected) {
  EXPECT_FALSE(bmc::parse_policy("").has_value());
  EXPECT_FALSE(bmc::parse_policy("vsids").has_value());
  EXPECT_FALSE(bmc::parse_policy("Static").has_value());  // case-sensitive
}

TEST(SplitCsvTest, SplitsAndDropsEmpties) {
  EXPECT_EQ(split_csv("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv("a,,b,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_csv("").empty());
  EXPECT_EQ(split_csv("solo"), (std::vector<std::string>{"solo"}));
}

TEST(PortfolioConfigTest, Defaults) {
  const PortfolioConfig cfg = PortfolioConfig::from_options(parse({}));
  EXPECT_EQ(cfg.policies,
            (std::vector<std::string>{"baseline", "static", "dynamic",
                                      "shtrichman", "evsids"}));
  EXPECT_EQ(cfg.max_depth, 20);
  EXPECT_LT(cfg.budget_sec, 0.0);
  EXPECT_FALSE(cfg.incremental);
  EXPECT_TRUE(cfg.simplify);
  EXPECT_EQ(cfg.core_weighting, "linear");
}

TEST(PortfolioConfigTest, ParsesEveryKnob) {
  const PortfolioConfig cfg = PortfolioConfig::from_options(
      parse({"--policies", "dynamic,static", "--depth", "33", "--budget",
             "2.5", "--incremental", "--simplify", "0"}));
  EXPECT_EQ(cfg.policies, (std::vector<std::string>{"dynamic", "static"}));
  EXPECT_EQ(cfg.max_depth, 33);
  EXPECT_DOUBLE_EQ(cfg.budget_sec, 2.5);
  EXPECT_TRUE(cfg.incremental);
  EXPECT_FALSE(cfg.simplify);
}

TEST(PortfolioConfigTest, RejectsBadValues) {
  EXPECT_THROW(PortfolioConfig::from_options(parse({"--policies", ","})),
               std::invalid_argument);
  EXPECT_THROW(PortfolioConfig::from_options(parse({"--depth", "-1"})),
               std::invalid_argument);
}

TEST(ResolveTest, MapsNamesToPoliciesAndEngineKnobs) {
  PortfolioConfig cfg;
  cfg.policies = {"static", "baseline"};
  cfg.max_depth = 12;
  cfg.incremental = true;
  cfg.simplify = false;
  cfg.budget_sec = 1.5;
  const ResolvedPortfolio r = resolve(cfg);
  EXPECT_EQ(r.policies, (std::vector<OrderingPolicy>{
                            OrderingPolicy::Static, OrderingPolicy::Baseline}));
  EXPECT_EQ(r.engine.max_depth, 12);
  EXPECT_TRUE(r.engine.incremental);
  EXPECT_FALSE(r.engine.simplify);
  EXPECT_DOUBLE_EQ(r.engine.total_time_limit_sec, 1.5);
}

TEST(ResolveTest, UnknownPolicyThrows) {
  PortfolioConfig cfg;
  cfg.policies = {"dynamic", "nope"};
  EXPECT_THROW(resolve(cfg), std::invalid_argument);
}

TEST(ResolveTest, RejectsWhatTheCliRejects) {
  // api::check and JobServer::submit reach resolve() without
  // from_options, so the range checks must hold here too.
  const std::vector<std::pair<const char*, void (*)(PortfolioConfig&)>>
      bad_values{
          {"share_cap 0", [](PortfolioConfig& c) { c.share_cap = 0; }},
          {"tier below glue",
           [](PortfolioConfig& c) {
             c.glue_lbd = 5;
             c.tier_lbd = 4;
           }},
          {"bve_budget 0", [](PortfolioConfig& c) { c.bve_budget = 0; }},
          {"depth -1", [](PortfolioConfig& c) { c.max_depth = -1; }},
          {"mem_ceiling -1", [](PortfolioConfig& c) { c.mem_ceiling_mb = -1; }},
          {"empty lineup", [](PortfolioConfig& c) { c.policies.clear(); }},
          {"repeated policy",
           [](PortfolioConfig& c) { c.policies = {"dynamic", "dynamic"}; }},
      };
  for (const auto& [name, mutate] : bad_values) {
    PortfolioConfig cfg;
    mutate(cfg);
    EXPECT_THROW(resolve(cfg), std::invalid_argument) << name;
  }
}

TEST(ResolveTest, DefaultRaceLineupSkipsReplace) {
  const auto lineup = default_race_policies();
  EXPECT_EQ(lineup.size(), 5u);
  for (const OrderingPolicy p : lineup)
    EXPECT_NE(p, OrderingPolicy::Replace);
  // The EVSIDS entrant races by default.
  EXPECT_NE(std::find(lineup.begin(), lineup.end(), OrderingPolicy::Evsids),
            lineup.end());
}

TEST(ResolveTest, LbdTiersResolve) {
  PortfolioConfig cfg;
  cfg.glue_lbd = 3;
  cfg.tier_lbd = 8;
  const ResolvedPortfolio r = resolve(cfg);
  EXPECT_EQ(r.engine.solver.glue_lbd, 3);
  EXPECT_EQ(r.engine.solver.tier_lbd, 8);
}

TEST(PortfolioConfigTest, ParsesLbdKnobsAndIgnoresRetiredFlags) {
  // The decision scorer follows the policy, the assumption savepoint
  // follows --incremental, a race runs one thread per entrant and
  // entrants no longer exchange rankings, so an old command line with
  // --decision, --assumption-savepoint, --threads, --seed or
  // --share-rank still parses, the flags ignored — even with values the
  // old parser rejected.
  const PortfolioConfig cfg = PortfolioConfig::from_options(
      parse({"--decision", "evsids", "--assumption-savepoint", "off",
             "--threads", "0", "--seed", "-3", "--share-rank", "maybe",
             "--glue-lbd", "3", "--tier-lbd", "9"}));
  EXPECT_EQ(cfg.glue_lbd, 3);
  EXPECT_EQ(cfg.tier_lbd, 9);
  EXPECT_TRUE(resolve(cfg).engine.solver.assumption_savepoint);
}

TEST(PortfolioConfigTest, RejectsTierBelowGlue) {
  EXPECT_THROW(PortfolioConfig::from_options(
                   parse({"--glue-lbd", "5", "--tier-lbd", "2"})),
               std::invalid_argument);
}

TEST(PortfolioConfigTest, ShareDefaultsOnAndParses) {
  const PortfolioConfig defaults = PortfolioConfig::from_options(parse({}));
  EXPECT_TRUE(defaults.share);
  EXPECT_EQ(defaults.share_lbd, 4);
  EXPECT_EQ(defaults.share_size, 2);
  EXPECT_EQ(defaults.share_cap, 4096);

  const PortfolioConfig cfg = PortfolioConfig::from_options(
      parse({"--share", "off", "--share-lbd", "6", "--share-size", "3",
             "--share-cap", "512"}));
  EXPECT_FALSE(cfg.share);
  EXPECT_EQ(cfg.share_lbd, 6);
  EXPECT_EQ(cfg.share_size, 3);
  EXPECT_EQ(cfg.share_cap, 512);
}

TEST(PortfolioConfigTest, RejectsBadShareValues) {
  EXPECT_THROW(PortfolioConfig::from_options(parse({"--share-lbd", "-1"})),
               std::invalid_argument);
  EXPECT_THROW(PortfolioConfig::from_options(parse({"--share-size", "-2"})),
               std::invalid_argument);
  EXPECT_THROW(PortfolioConfig::from_options(parse({"--share-cap", "0"})),
               std::invalid_argument);
  EXPECT_THROW(PortfolioConfig::from_options(parse({"--share", "maybe"})),
               std::invalid_argument);
}

TEST(ResolveTest, SharingKnobsResolve) {
  PortfolioConfig cfg;
  cfg.share = false;
  cfg.share_lbd = 7;
  cfg.share_size = 4;
  cfg.share_cap = 256;
  const ResolvedPortfolio r = resolve(cfg);
  EXPECT_FALSE(r.sharing.enabled);
  EXPECT_EQ(r.sharing.lbd_max, 7);
  EXPECT_EQ(r.sharing.size_max, 4);
  EXPECT_EQ(r.sharing.capacity, 256);
}

TEST(WeightingNameTest, ToStringParseRoundTrip) {
  for (const bmc::CoreWeighting w : bmc::all_core_weightings()) {
    const auto parsed = bmc::parse_core_weighting(bmc::to_string(w));
    ASSERT_TRUE(parsed.has_value()) << bmc::to_string(w);
    EXPECT_EQ(*parsed, w);
  }
  // Names are unique — two weightings printing alike would make the
  // round-trip ambiguous.
  for (const bmc::CoreWeighting w : bmc::all_core_weightings())
    for (const bmc::CoreWeighting x : bmc::all_core_weightings())
      if (w != x) {
        EXPECT_STRNE(bmc::to_string(w), bmc::to_string(x));
      }
}

TEST(WeightingNameTest, EveryWeightingIsReachableThroughTheCli) {
  // The sweep discipline of EveryPolicyIsReachableThroughTheCli, applied
  // to --core-weighting: every enum value must survive the full CLI path
  // — PortfolioConfig name into resolve() — not just parse_core_weighting.
  for (const bmc::CoreWeighting w : bmc::all_core_weightings()) {
    const PortfolioConfig cfg = PortfolioConfig::from_options(
        parse({"--core-weighting", bmc::to_string(w)}));
    EXPECT_EQ(cfg.core_weighting, bmc::to_string(w));
    const ResolvedPortfolio r = resolve(cfg);
    EXPECT_EQ(r.engine.weighting, w) << bmc::to_string(w);
  }
}

TEST(WeightingNameTest, UnknownWeightingIsRejected) {
  EXPECT_FALSE(bmc::parse_core_weighting("").has_value());
  EXPECT_FALSE(bmc::parse_core_weighting("Linear").has_value());  // case
  EXPECT_FALSE(bmc::parse_core_weighting("expdecay").has_value());
  PortfolioConfig cfg;
  cfg.core_weighting = "quadratic";
  EXPECT_THROW(resolve(cfg), std::invalid_argument);
}

TEST(PortfolioConfigTest, PreprocessDefaultsOnAndParses) {
  const PortfolioConfig defaults = PortfolioConfig::from_options(parse({}));
  EXPECT_TRUE(defaults.preprocess);
  EXPECT_EQ(defaults.bve_budget, 16);

  const PortfolioConfig cfg = PortfolioConfig::from_options(
      parse({"--preprocess", "off", "--bve-budget", "32"}));
  EXPECT_FALSE(cfg.preprocess);
  EXPECT_EQ(cfg.bve_budget, 32);

  EXPECT_THROW(PortfolioConfig::from_options(parse({"--bve-budget", "0"})),
               std::invalid_argument);
  EXPECT_THROW(PortfolioConfig::from_options(parse({"--preprocess", "maybe"})),
               std::invalid_argument);
}

TEST(ResolveTest, PreprocessKnobsResolve) {
  PortfolioConfig cfg;
  cfg.preprocess = true;
  cfg.bve_budget = 24;
  const ResolvedPortfolio on = resolve(cfg);
  EXPECT_TRUE(on.engine.preprocess.enabled);
  EXPECT_EQ(on.engine.preprocess.bve_budget, 24);

  cfg.preprocess = false;
  const ResolvedPortfolio off = resolve(cfg);
  EXPECT_FALSE(off.engine.preprocess.enabled);
}

}  // namespace
}  // namespace refbmc::portfolio
