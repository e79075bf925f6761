// Chaos soak of the end-to-end SDC defense (ISSUE 10 acceptance): at
// least 200 seeded mixed-fault requests served across the tree, mesh,
// and torus fabrics with every completion checked bit-for-bit against a
// golden fault-free run. The invariants: no silent wrong answers, no
// drops (completed + typed failures == admitted), the flaky member is
// quarantined while the fleet keeps serving, and clean probes reinstate
// it — all visible through ServiceReport counters. "No hangs" is pinned
// by determinism: the run finishing at all is the proof.
#include <gtest/gtest.h>

#include "serve/chaos.h"

namespace repro::serve {
namespace {

void expect_invariants(const ChaosOutcome& out, const std::string& label) {
  EXPECT_EQ(out.silent_wrong, 0u) << label;
  EXPECT_EQ(out.bit_correct, out.report.completed) << label;
  EXPECT_EQ(out.report.completed + out.report.failures.size(), out.admitted)
      << label;
  EXPECT_GT(out.report.completed, 0u) << label;
  for (const auto& f : out.report.failures) {
    EXPECT_FALSE(f.error.empty()) << label << " id " << f.id;
  }
  // The scoreboard is exported per member, every ordinal accounted for.
  EXPECT_EQ(out.report.member_health.size(), 4u) << label;
}

TEST(ChaosSoak, TreeMeshTorusNoSilentWrongAnswers) {
  std::size_t admitted_total = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t reinstatements = 0;
  std::uint64_t verify_failures = 0;
  // Seed 20081115 spreads its incidents over too many sweep windows to
  // quarantine anyone once verified batches are priced as the serial
  // schedule they run; seed 7 (also in the sweep below) concentrates
  // them, so the pair exercises the whole quarantine loop.
  for (const std::uint64_t seed : {20081115ULL, 7ULL}) {
    for (const char* topo : {"tree", "mesh", "torus"}) {
      ChaosSpec spec;
      spec.seed = seed;
      spec.requests = 70;
      spec.topology = topo;
      const ChaosOutcome out = run_chaos(spec);
      expect_invariants(out, std::string(topo) + " seed " +
                                 std::to_string(seed));
      admitted_total += out.admitted;
      quarantines += out.report.quarantines;
      reinstatements += out.report.reinstatements;
      verify_failures += out.report.verify_failures;
    }
  }
  // The acceptance bar: >= 200 admitted mixed-fault requests across the
  // three fabrics, the silent corruption actually detected somewhere,
  // the flaky member quarantined, and at least one member earning its
  // way back in after clean probes.
  EXPECT_GE(admitted_total, 200u);
  EXPECT_GT(verify_failures, 0u);
  EXPECT_GE(quarantines, 1u);
  EXPECT_GE(reinstatements, 1u);
}

TEST(ChaosSoak, SeedSweepOnTreeHoldsInvariants) {
  for (const std::uint64_t seed : {7ULL, 21ULL, 1234ULL}) {
    ChaosSpec spec;
    spec.seed = seed;
    spec.requests = 24;
    const ChaosOutcome out = run_chaos(spec);
    expect_invariants(out, "seed " + std::to_string(seed));
  }
}

TEST(ChaosSoak, FullVerifyAlsoHoldsInvariants) {
  ChaosSpec spec;
  spec.requests = 24;
  spec.verify = gpufft::VerifyPolicy::Full;
  const ChaosOutcome out = run_chaos(spec);
  expect_invariants(out, "full-verify");
}

TEST(ChaosSoak, RunsAreBitReproducible) {
  ChaosSpec spec;
  spec.requests = 16;
  const ChaosOutcome a = run_chaos(spec);
  const ChaosOutcome b = run_chaos(spec);
  EXPECT_EQ(a.report.completed, b.report.completed);
  EXPECT_EQ(a.report.failures.size(), b.report.failures.size());
  EXPECT_EQ(a.report.quarantines, b.report.quarantines);
  EXPECT_EQ(a.report.reinstatements, b.report.reinstatements);
  EXPECT_DOUBLE_EQ(a.report.makespan_ms, b.report.makespan_ms);
}

}  // namespace
}  // namespace repro::serve
