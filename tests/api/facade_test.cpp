// The api façade must be a faithful skin over the CLI path: the builder
// and from_options agree knob for knob, and config_fingerprint changes
// exactly when a behaviour-affecting option changes.
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/refbmc.hpp"
#include "bmc/engine.hpp"
#include "model/benchgen.hpp"
#include "portfolio/scheduler.hpp"

namespace refbmc::api {
namespace {

Options make_options(std::vector<std::string> args) {
  args.insert(args.begin(), "test");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return Options::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FacadeTest, CheckFindsTheInjectedBug) {
  const model::Benchmark bm = model::fifo_buggy(4);
  CheckRequest request;
  request.net = bm.net;
  request.name = bm.name;
  request.options.policy("dynamic").max_depth(24);
  const CheckResult r = check(request);
  ASSERT_EQ(r.status, CheckResult::Status::CounterexampleFound);
  EXPECT_EQ(r.counterexample_depth, bm.expect_depth);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(r.winner_policy, "dynamic");
  EXPECT_FALSE(r.from_cache);
  EXPECT_GT(r.total_decisions(), 0u);
  EXPECT_FALSE(r.per_depth.empty());
}

TEST(FacadeTest, FacadeAgreesWithDirectEngine) {
  // A single-entrant façade check and a direct BmcEngine run of the same
  // configuration must reach the same verdict at the same depth.
  for (const auto& bm :
       {model::arbiter_buggy(6), model::fifo_safe(4)}) {
    RaceOptions options;
    options.policy("dynamic").max_depth(bm.suggested_bound);
    CheckRequest request;
    request.net = bm.net;
    request.options = options;
    const CheckResult from_facade = check(request);

    const portfolio::ResolvedPortfolio cfg = options.resolve();
    bmc::EngineConfig engine = cfg.engine;
    engine.policy = cfg.policies.front();
    bmc::BmcEngine direct(bm.net, engine);
    const bmc::BmcResult reference = direct.run();

    EXPECT_EQ(from_facade.status, reference.status) << bm.name;
    EXPECT_EQ(from_facade.counterexample_depth,
              reference.counterexample_depth)
        << bm.name;
  }
}

TEST(FacadeTest, FromOptionsMatchesBuilder) {
  // The shared CLI path and the chainable setters must land on the same
  // fingerprint — i.e. the exact same race.
  const Options opts = make_options(
      {"--policies", "static,dynamic", "--depth", "17", "--budget", "3.5",
       "--incremental", "--share", "0", "--core-weighting", "exp-decay"});
  const RaceOptions from_cli = RaceOptions::from_options(opts);

  RaceOptions built;
  built.policies({"static", "dynamic"})
      .max_depth(17)
      .budget_sec(3.5)
      .incremental(true)
      .share(false)
      .core_weighting("exp-decay");
  EXPECT_EQ(config_fingerprint(from_cli), config_fingerprint(built));
}

TEST(FacadeTest, FromOptionsSpellings) {
  // --bound aliases --depth; --policy P is a single-entrant lineup;
  // --any-frame flips the bad mode.
  const RaceOptions o = RaceOptions::from_options(
      make_options({"--bound", "7", "--policy", "static", "--any-frame"}));
  EXPECT_EQ(o.max_depth(), 7);
  EXPECT_EQ(o.bad_mode(), bmc::BadMode::Any);
  const portfolio::ResolvedPortfolio cfg = o.resolve();
  ASSERT_EQ(cfg.policies.size(), 1u);
  EXPECT_EQ(cfg.policies.front(), bmc::OrderingPolicy::Static);
}

TEST(FacadeTest, InvalidValuesSurfaceAtResolveTime) {
  RaceOptions o;
  o.policy("definitely-not-a-policy");
  EXPECT_THROW(o.resolve(), std::invalid_argument);
}

TEST(FacadeTest, FingerprintIsDeterministic) {
  RaceOptions a, b;
  EXPECT_EQ(config_fingerprint(a), config_fingerprint(b));
  a.max_depth(31).share_cap(512).share_lbd(3);
  b.max_depth(31).share_cap(512).share_lbd(3);
  EXPECT_EQ(config_fingerprint(a), config_fingerprint(b));
}

TEST(FacadeTest, FingerprintCoversEveryKnob) {
  // Flipping any single behaviour-affecting option must move the
  // fingerprint — a stale-cache-hit bug per missed field.
  const std::uint64_t base = config_fingerprint(RaceOptions{});
  const std::vector<std::pair<const char*,
                              std::function<void(RaceOptions&)>>> knobs = {
      {"policies", [](RaceOptions& o) { o.policy("static"); }},
      {"max_depth", [](RaceOptions& o) { o.max_depth(21); }},
      {"budget_sec", [](RaceOptions& o) { o.budget_sec(9.0); }},
      {"incremental", [](RaceOptions& o) { o.incremental(true); }},
      {"simplify", [](RaceOptions& o) { o.simplify(false); }},
      {"bad_mode", [](RaceOptions& o) { o.bad_mode(bmc::BadMode::Any); }},
      {"glue_lbd", [](RaceOptions& o) { o.glue_lbd(3); }},
      {"tier_lbd", [](RaceOptions& o) { o.tier_lbd(7); }},
      {"share", [](RaceOptions& o) { o.share(false); }},
      {"share_lbd", [](RaceOptions& o) { o.share_lbd(5); }},
      {"share_size", [](RaceOptions& o) { o.share_size(3); }},
      {"share_cap", [](RaceOptions& o) { o.share_cap(512); }},
      {"core_weighting",
       [](RaceOptions& o) { o.core_weighting("uniform"); }},
      {"preprocess", [](RaceOptions& o) { o.preprocess(false); }},
      {"bve_budget", [](RaceOptions& o) { o.bve_budget(4); }},
  };
  for (const auto& [name, mutate] : knobs) {
    RaceOptions o;
    mutate(o);
    EXPECT_NE(config_fingerprint(o), base)
        << "fingerprint blind to option: " << name;
  }
}

TEST(FacadeTest, FingerprintEmbedsFormulaFingerprint) {
  // Formula-shaping knobs move both fingerprints; search-only knobs move
  // config_fingerprint while the formula identity stays put.
  const auto formula_of = [](const RaceOptions& o) {
    return bmc::formula_fingerprint(o.resolve().engine);
  };
  const RaceOptions base;
  RaceOptions formula_knob;
  formula_knob.simplify(false);
  EXPECT_NE(formula_of(formula_knob), formula_of(base));
  EXPECT_NE(config_fingerprint(formula_knob), config_fingerprint(base));

  RaceOptions search_knob;
  search_knob.glue_lbd(3).share_lbd(6);
  EXPECT_EQ(formula_of(search_knob), formula_of(base));
  EXPECT_NE(config_fingerprint(search_knob), config_fingerprint(base));
}

TEST(FacadeTest, ObservabilityExcludedFromFingerprint) {
  // Trace/metrics files never change a verdict, so two requests that
  // differ only there must share a cache slot.
  const RaceOptions plain = RaceOptions::from_options(make_options({}));
  const RaceOptions traced = RaceOptions::from_options(
      make_options({"--trace", "/tmp/t.json", "--metrics", "/tmp/m.json"}));
  EXPECT_EQ(config_fingerprint(plain), config_fingerprint(traced));
}

TEST(FacadeTest, StructuralHashIgnoresLabelsNotStructure) {
  const model::Benchmark a = model::fifo_buggy(4);
  const model::Benchmark b = model::fifo_buggy(4);
  EXPECT_EQ(model::structural_hash(a.net), model::structural_hash(b.net));
  EXPECT_NE(model::structural_hash(a.net),
            model::structural_hash(model::fifo_buggy(3).net));
  EXPECT_NE(model::structural_hash(a.net),
            model::structural_hash(model::arbiter_buggy(6).net));
}

}  // namespace
}  // namespace refbmc::api
