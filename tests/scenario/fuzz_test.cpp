// Fuzz-loop contract: invariant evaluation matches the runner's ground
// truth, the loop is deterministic from its seed, and an injected
// falsifiable invariant is found and shrunk to a smaller, still-failing,
// still-parseable repro stamped with expect_violation.
#include "scenario/fuzz.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "scenario/spec.hpp"

namespace discs::scenario {
namespace {

ScenarioSpec must_parse(const std::string& text) {
  auto result = parse_scenario(text);
  if (!result.ok()) {
    ADD_FAILURE() << result.error().message;
    return ScenarioSpec{};
  }
  return std::move(*result);
}

// Small sibling of the CLI's default base: quick to run, all invariants
// genuinely hold, and attack steps give no_attack_delivered something to
// be false about once injected.
constexpr char kFuzzBase[] = R"(scenario fuzz_base
seed 42
world system
topology synthetic
synthetic.ases 16
synthetic.prefixes 64
deploy.strategy optimal
deploy.count 4
drain 60s

at 30s invoke @0 all direct 20s
at 35s attack direct packets=500

check round_trip
check orphan_freedom
check no_delivery_failures
check retransmit_bound
)";

TEST(ScenarioFuzzTest, BaseSpecPassesItsOwnChecks) {
  const CheckResult result = check_scenario(must_parse(kFuzzBase));
  for (const auto& v : result.violations) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

TEST(ScenarioFuzzTest, NoAttackDeliveredFailsWhenTrafficGetsThrough) {
  // Partial deployment cannot stop every spoofed packet, so the
  // deliberately falsifiable invariant must fire with a delivery count.
  ScenarioSpec spec = must_parse(kFuzzBase);
  spec.checks = {std::string(invariants::kNoAttackDelivered)};
  const CheckResult result = check_scenario(spec);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].invariant, invariants::kNoAttackDelivered);
}

TEST(ScenarioFuzzTest, CleanSweepFindsNothing) {
  const FuzzResult result =
      fuzz_scenarios(must_parse(kFuzzBase), {.seed = 1, .iterations = 5, .inject = ""});
  EXPECT_EQ(result.executed, 5u);
  EXPECT_FALSE(result.found);
}

TEST(ScenarioFuzzTest, FuzzLoopIsDeterministicFromSeed) {
  const ScenarioSpec base = must_parse(kFuzzBase);
  const FuzzConfig config{.seed = 7, .iterations = 4, .inject = ""};
  const FuzzResult a = fuzz_scenarios(base, config);
  const FuzzResult b = fuzz_scenarios(base, config);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.found, b.found);
  if (a.found && b.found) {
    EXPECT_EQ(serialize_scenario(a.failing), serialize_scenario(b.failing));
    EXPECT_EQ(serialize_scenario(a.shrunk), serialize_scenario(b.shrunk));
  }
}

TEST(ScenarioFuzzTest, InjectedViolationIsFoundAndShrunk) {
  const ScenarioSpec base = must_parse(kFuzzBase);
  const FuzzResult result = fuzz_scenarios(
      base, {.seed = 1,
             .iterations = 10,
             .inject = std::string(invariants::kNoAttackDelivered)});
  ASSERT_TRUE(result.found) << "injected invariant never fired";
  EXPECT_EQ(result.violation.invariant, invariants::kNoAttackDelivered);

  // The shrunk repro is (a) stamped, (b) no larger than the failing
  // mutant, (c) still failing exactly the recorded invariant, and
  // (d) parseable from its own serialization.
  EXPECT_EQ(result.shrunk.expect_violation, invariants::kNoAttackDelivered);
  const std::string shrunk_text = serialize_scenario(result.shrunk);
  EXPECT_LE(shrunk_text.size(), serialize_scenario(result.failing).size());
  EXPECT_GT(result.shrink_steps, 0u);

  const auto reparsed = parse_scenario(shrunk_text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  const CheckResult replay = check_scenario(*reparsed);
  const bool still_fires = std::any_of(
      replay.violations.begin(), replay.violations.end(), [](const auto& v) {
        return v.invariant == invariants::kNoAttackDelivered;
      });
  EXPECT_TRUE(still_fires) << "shrunk repro no longer reproduces";
}

TEST(ScenarioFuzzTest, ShrinkReachesMinimalAttack) {
  // Shrinking a spec that fails no_attack_delivered should drive the
  // packet count down hard — the minimal repro needs just one packet.
  ScenarioSpec failing = must_parse(kFuzzBase);
  failing.checks = {std::string(invariants::kNoAttackDelivered)};
  std::size_t steps = 0;
  const ScenarioSpec shrunk = shrink_scenario(
      failing, std::string(invariants::kNoAttackDelivered), &steps);
  EXPECT_GT(steps, 0u);
  ASSERT_EQ(shrunk.schedule.size(), 1u);  // the invoke step shrinks away
  EXPECT_EQ(shrunk.schedule[0].kind, ScheduleStep::Kind::kAttack);
  EXPECT_EQ(shrunk.schedule[0].attack.packets, 1u);
}

}  // namespace
}  // namespace discs::scenario
