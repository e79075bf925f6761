// Batched multi-volume execution: the dealt batch
// (ShardedFft3DPlan::deal_batch, and the OutOfCore group plan that always
// deals), the pipelined sharded batch, bit-identity of every schedule
// against the serial reference, exact pricing of the pipelined issue
// order and of the deal-vs-shard decision, and mid-batch DeviceLost
// recovery for both paths.
#include "gpufft/batch_sharded.h"

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "gpufft/registry.h"
#include "gpufft/sharded.h"
#include "sim/fault.h"
#include "sim/topology/peer_mesh.h"

namespace repro::gpufft {
namespace {

bool bit_identical(const std::vector<cxf>& a, const std::vector<cxf>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].re != b[i].re || a[i].im != b[i].im) return false;
  }
  return true;
}

std::vector<std::vector<cxf>> make_volumes(std::size_t count, std::size_t n,
                                           std::uint64_t seed0) {
  std::vector<std::vector<cxf>> v;
  v.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    v.push_back(random_complex<float>(n * n * n, seed0 + k));
  }
  return v;
}

std::vector<std::span<cxf>> spans_of(std::vector<std::vector<cxf>>& v) {
  std::vector<std::span<cxf>> s;
  s.reserve(v.size());
  for (auto& x : v) s.emplace_back(x);
  return s;
}

/// Reference results: each volume through the serial sharded schedule on
/// a fresh group (the behavior every batch path must reproduce).
std::vector<std::vector<cxf>> serial_reference(
    std::size_t n, std::size_t shards, Direction dir,
    const std::vector<std::vector<cxf>>& inputs) {
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(group, n, shards, dir);
  std::vector<std::vector<cxf>> out = inputs;
  for (auto& v : out) plan.execute(std::span<cxf>(v));
  return out;
}

/// Makespan of one execute() per volume, back to back — the serial
/// schedule a verifying exec policy runs.
double serial_batch_ms(ShardedFft3DPlan& plan,
                       std::span<const std::span<cxf>> volumes) {
  const double t0 = plan.group().elapsed_ms();
  for (const auto& v : volumes) plan.execute(v);
  return plan.group().elapsed_ms() - t0;
}

TEST(BatchSharded, DealtBatchBitIdenticalToShardedAnyGroupSize) {
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const auto inputs = make_volumes(3, n, 101);
  const auto ref = serial_reference(n, shards, Direction::Forward, inputs);
  // Dealing has no divisibility constraints: 3 members neither divides
  // shards=4 nor n/shards=8, yet results must stay bit-identical.
  for (const std::size_t devices : {1u, 2u, 3u}) {
    sim::DeviceGroup group(devices, sim::geforce_8800_gts());
    ShardedFft3DPlan plan(
        group, PlanDesc::out_of_core(n, shards, Direction::Forward));
    auto data = inputs;
    auto spans = spans_of(data);
    const auto bt = plan.execute_batch(spans);
    EXPECT_EQ(bt.volume_done_ms.size(), 3u);
    EXPECT_GT(bt.makespan_ms, 0.0);
    EXPECT_GT(bt.volumes_per_sec(), 0.0);
    for (std::size_t k = 0; k < data.size(); ++k) {
      EXPECT_TRUE(bit_identical(data[k], ref[k]))
          << "devices=" << devices << " volume=" << k;
      EXPECT_EQ(bt.volume_member[k], k % devices);
    }
  }
}

TEST(BatchSharded, PipelinedBatchBitIdenticalToSerialAcrossGroups) {
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const auto inputs = make_volumes(3, n, 202);
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    const auto ref = serial_reference(n, shards, dir, inputs);
    std::vector<std::vector<sim::GpuSpec>> fleets = {
        {sim::geforce_8800_gts()},
        {sim::geforce_8800_gts(), sim::geforce_8800_gts()},
        std::vector<sim::GpuSpec>(4, sim::geforce_8800_gts()),
        {sim::geforce_8800_gt(), sim::geforce_8800_gtx()},
    };
    for (auto& specs : fleets) {
      sim::DeviceGroup group(specs);
      ShardedFft3DPlan plan(group, n, shards, dir);
      auto data = inputs;
      auto spans = spans_of(data);
      const auto bt = plan.execute_batch(spans);
      EXPECT_EQ(bt.volume_done_ms.size(), 3u);
      for (std::size_t k = 0; k < data.size(); ++k) {
        EXPECT_TRUE(bit_identical(data[k], ref[k]))
            << "fleet=" << specs.size() << " volume=" << k;
      }
      // Completion offsets are positive and ordered with the schedule.
      for (std::size_t k = 0; k < bt.volume_done_ms.size(); ++k) {
        EXPECT_GT(bt.volume_done_ms[k], 0.0);
        EXPECT_LE(bt.volume_done_ms[k], bt.makespan_ms + 1e-9);
      }
      EXPECT_GT(bt.exchange_occupancy(), 0.0);
      EXPECT_GT(bt.compute_occupancy(), 0.0);
    }
  }
}

TEST(BatchSharded, PipelinedImprovesMakespanOnDualEngineCards) {
  // The acceptance configuration scaled to test size: a 4-card group of
  // 2-DMA GT200 cards, where the serial schedule leaves the bridge idle
  // between volumes and the pipeline hides the exchange under the next
  // volume's phase 1.
  const std::size_t n = 64;
  const std::size_t shards = 8;
  auto inputs = make_volumes(4, n, 303);
  sim::DeviceGroup group(4, sim::geforce_gtx_280());
  ShardedFft3DPlan plan(group, n, shards, Direction::Forward);

  auto serial_data = inputs;
  auto serial_spans = spans_of(serial_data);
  const double serial_ms = serial_batch_ms(plan, serial_spans);

  auto pipe_data = inputs;
  auto pipe_spans = spans_of(pipe_data);
  const auto piped = plan.execute_batch(pipe_spans);

  for (std::size_t k = 0; k < inputs.size(); ++k) {
    EXPECT_TRUE(bit_identical(pipe_data[k], serial_data[k])) << k;
  }
  const double gain = serial_ms / piped.makespan_ms;
  EXPECT_GE(gain, 1.2) << "serial=" << serial_ms
                       << " pipelined=" << piped.makespan_ms;
}

}  // namespace

/// Runs a pipelined batch at a fixed issue order, which execute_batch only
/// ever picks as the priced argmin.
struct ShardedPlanTestAccess {
  static ShardedBatchTiming run_pipelined(
      ShardedFft3DPlan& plan, std::span<const std::span<cxf>> volumes,
      std::size_t lookahead) {
    return plan.run_pipelined(volumes, lookahead);
  }
};

namespace {

TEST(BatchSharded, PricedLookaheadCandidatesAreExact) {
  // Every candidate issue order, priced on the timing twin, against the
  // same order run on the live fleet; then execute_batch must run the
  // cheapest at exactly its price.
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const std::size_t batch = 4;
  for (const auto& spec :
       {sim::geforce_8800_gts(), sim::geforce_gtx_280()}) {
    for (const std::size_t devices : {2u, 4u}) {
      SCOPED_TRACE(spec.name + " x" + std::to_string(devices));
      sim::DeviceGroup group(devices, spec);
      ShardedFft3DPlan plan(group, n, shards, Direction::Forward);
      auto data = make_volumes(batch, n, 404);
      auto spans = spans_of(data);
      for (std::size_t la = 0; la < kPipelineContexts; ++la) {
        const double priced =
            priced_sharded_ms(group, plan.desc(), plan.decomposition(),
                              batch, {}, la);
        group.reset_clocks();
        EXPECT_EQ(ShardedPlanTestAccess::run_pipelined(plan, spans, la)
                      .makespan_ms,
                  priced)
            << "lookahead=" << la;
      }
      const IssueOrder best = priced_issue_order(
          group, plan.desc(), plan.decomposition(), batch);
      group.reset_clocks();
      EXPECT_EQ(plan.execute_batch(spans).makespan_ms, best.ms);
    }
  }
}

/// A priced deal-vs-shard choice and the two batches it weighed, run.
struct PricedChoice {
  BatchChoice choice;
  double dealt_ms{};
  double sharded_ms{};
};

/// Fresh fleet, priced choice for `batch` volumes, then both schedules
/// run in pricing order (deal, then shard) so live and twin share one
/// allocation history; each run must equal its price.
PricedChoice run_priced_choice(std::size_t devices, std::size_t n,
                               std::size_t shards, std::size_t batch) {
  sim::DeviceGroup group(devices, sim::geforce_8800_gts());
  const PlanDesc desc = PlanDesc::sharded3d(n, shards, Direction::Forward);
  PricedChoice r;
  r.choice = choose_batch_strategy(group, desc, batch);

  ShardedFft3DPlan plan(group, desc);
  auto deal_data = make_volumes(batch, n, 500 + batch);
  auto deal_spans = spans_of(deal_data);
  group.reset_clocks();
  r.dealt_ms = plan.deal_batch(deal_spans).makespan_ms;

  auto shard_data = make_volumes(batch, n, 500 + batch);
  auto shard_spans = spans_of(shard_data);
  group.reset_clocks();
  r.sharded_ms = plan.execute_batch(shard_spans).makespan_ms;

  EXPECT_EQ(r.dealt_ms, r.choice.deal_ms) << "batch=" << batch;
  EXPECT_EQ(r.sharded_ms, r.choice.shard_ms) << "batch=" << batch;
  return r;
}

BatchStrategy measured_winner(const PricedChoice& r) {
  return r.dealt_ms <= r.sharded_ms ? BatchStrategy::Deal
                                    : BatchStrategy::Shard;
}

TEST(BatchSharded, ModelPredictsDealVsShardCrossover) {
  // The planner rule: sharding wins while the batch is smaller than the
  // fleet (dealing idles cards), dealing wins once every card has a
  // whole volume. Both sides are priced exactly, so the predicted winner
  // is the measured one at every batch size.
  const std::size_t n = 64;
  const std::size_t shards = 8;
  const std::size_t devices = 4;
  for (const std::size_t batch : {1u, 2u, 4u, 8u}) {
    const PricedChoice r = run_priced_choice(devices, n, shards, batch);
    EXPECT_EQ(r.choice.strategy, measured_winner(r))
        << "batch=" << batch << " deal=" << r.dealt_ms
        << " shard=" << r.sharded_ms;
    if (batch == 1) {
      // A single volume must shard: dealing leaves 3 of 4 cards idle.
      EXPECT_EQ(r.choice.strategy, BatchStrategy::Shard);
      EXPECT_LT(r.sharded_ms, r.dealt_ms);
    }
  }
}

TEST(BatchSharded, DealWinsWhenShardingCannotUseEveryCard) {
  // 3 cards, 8 shards: the sharded plan falls back to a 2-member prefix
  // (3 divides neither 8 nor n/shards), while dealing keeps all three
  // busy — so the crossover is decisive, not a bridge-bound tie.
  const std::size_t n = 64;
  const std::size_t shards = 8;
  const std::size_t devices = 3;
  for (const std::size_t batch : {1u, 6u}) {
    const PricedChoice r = run_priced_choice(devices, n, shards, batch);
    EXPECT_EQ(r.choice.strategy, measured_winner(r))
        << "batch=" << batch << " deal=" << r.dealt_ms
        << " shard=" << r.sharded_ms;
    EXPECT_EQ(r.choice.strategy,
              batch == 1 ? BatchStrategy::Shard : BatchStrategy::Deal);
  }
}

/// DeviceLost occurrences on `victim` for one full dealt/pipelined batch,
/// measured with a disarmed injector (counting matches an armed run up to
/// the first fire).
template <typename RunBatch>
std::uint64_t occurrences_for(sim::DeviceGroup& group, std::size_t victim,
                              RunBatch&& run) {
  auto& inj = group.faults(victim);
  inj.disarm_all();
  run();
  return inj.occurrences(sim::FaultKind::DeviceLost);
}

TEST(BatchSharded, PipelinedBatchSurvivesMidStreamDeviceLost) {
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const auto inputs = make_volumes(4, n, 606);
  const auto ref = serial_reference(n, shards, Direction::Forward, inputs);

  sim::DeviceGroup group(4, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(group, n, shards, Direction::Forward);
  auto count_data = inputs;
  auto count_spans = spans_of(count_data);
  const std::uint64_t total = occurrences_for(group, 2, [&] {
    plan.execute_batch(count_spans);
  });
  ASSERT_GT(total, 0u);

  // Lose member 2 roughly mid-batch: queued volumes must still complete,
  // bit-identically, on the survivors.
  sim::DeviceGroup fresh(4, sim::geforce_8800_gts());
  fresh.faults(2).arm(sim::FaultKind::DeviceLost, total / 2);
  ShardedFft3DPlan fplan(fresh, n, shards, Direction::Forward);
  const auto before = recovery_counters().device_lost_failovers;
  auto data = inputs;
  auto spans = spans_of(data);
  const auto bt = fplan.execute_batch(spans);
  EXPECT_EQ(bt.volume_done_ms.size(), 4u);
  EXPECT_GT(recovery_counters().device_lost_failovers, before);
  EXPECT_EQ(fresh.alive_count(), 3u);
  for (std::size_t k = 0; k < data.size(); ++k) {
    EXPECT_TRUE(bit_identical(data[k], ref[k])) << "volume=" << k;
  }
}

TEST(BatchSharded, DealtBatchSurvivesMidStreamDeviceLost) {
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const auto inputs = make_volumes(4, n, 707);
  const auto ref = serial_reference(n, shards, Direction::Forward, inputs);

  const PlanDesc desc = PlanDesc::out_of_core(n, shards, Direction::Forward);
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(group, desc);
  auto count_data = inputs;
  auto count_spans = spans_of(count_data);
  const std::uint64_t total = occurrences_for(
      group, 1, [&] { plan.execute_batch(count_spans); });
  ASSERT_GT(total, 0u);

  sim::DeviceGroup fresh(2, sim::geforce_8800_gts());
  fresh.faults(1).arm(sim::FaultKind::DeviceLost, total / 2);
  ShardedFft3DPlan fplan(fresh, desc);
  const auto before = recovery_counters().device_lost_failovers;
  auto data = inputs;
  auto spans = spans_of(data);
  const auto bt = fplan.execute_batch(spans);
  EXPECT_GT(recovery_counters().device_lost_failovers, before);
  EXPECT_EQ(fresh.alive_count(), 1u);
  for (std::size_t k = 0; k < data.size(); ++k) {
    EXPECT_TRUE(bit_identical(data[k], ref[k])) << "volume=" << k;
    // Every volume ran (or re-ran) on an alive member.
    if (k > 0) {
      EXPECT_EQ(bt.volume_member[k], 0u);
    }
  }
}

TEST(BatchSharded, RegistryFrontDoorServesBatchShardedPlans) {
  const std::size_t n = 32;
  sim::DeviceGroup group(3, sim::geforce_8800_gts());
  auto& reg = PlanRegistry::of(group);
  const auto desc = PlanDesc::out_of_core(n, 4, Direction::Forward);
  auto plan = reg.get_or_create(desc);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->desc().kind, PlanKind::OutOfCore);

  auto inputs = make_volumes(2, n, 808);
  const auto ref = serial_reference(n, 4, Direction::Forward, inputs);
  auto spans = spans_of(inputs);
  const auto steps = plan->execute_batch_host(spans);
  EXPECT_FALSE(steps.empty());
  EXPECT_GT(plan->last_total_ms(), 0.0);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    EXPECT_TRUE(bit_identical(inputs[k], ref[k])) << k;
  }
  auto again = reg.get_or_create(desc);
  EXPECT_EQ(plan.get(), again.get());
  EXPECT_GE(reg.hits(), 1u);
}

TEST(BatchSharded, DealtRealBatchesMatchShardedExecutes) {
  // Dealing carries the plane codec: one-card half-spectrum runs are
  // bit-identical to the same volumes sharded over a 4-card peer mesh,
  // forward (r2c) and inverse (c2r).
  const std::size_t n = 32;
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    SCOPED_TRACE(dir == Direction::Forward ? "r2c" : "c2r");
    const PlanDesc desc = PlanDesc::sharded_real3d(n, 4, dir);
    std::vector<std::vector<cxf>> inputs;
    for (std::size_t k = 0; k < 3; ++k) {
      inputs.push_back(
          random_complex<float>(desc.buffer_elements(), 909 + k));
    }
    sim::DeviceGroup mesh(4, sim::geforce_8800_gts(),
                          std::make_shared<sim::PeerMeshTopology>(4));
    ShardedFft3DPlan sharded(mesh, desc);
    auto ref = inputs;
    for (auto& v : ref) sharded.execute(std::span<cxf>(v));

    sim::DeviceGroup tree(4, sim::geforce_8800_gts());
    ShardedFft3DPlan dealt(tree, desc);
    auto data = inputs;
    auto spans = spans_of(data);
    const auto bt = dealt.deal_batch(spans);
    for (std::size_t k = 0; k < data.size(); ++k) {
      EXPECT_TRUE(bit_identical(data[k], ref[k])) << "volume=" << k;
      EXPECT_EQ(bt.volume_member[k], k);
    }
  }
}

TEST(BatchSharded, DealtTimelineMatchesTheRecordedSchedule) {
  // Golden schedule: three 32^3 volumes, 4 shards, dealt over 2 x 8800
  // GTS. The constants were recorded from the per-member out-of-core
  // plans dealing used before it became a one-member run of the sharded
  // schedule.
  const std::size_t n = 32;
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(group,
                        PlanDesc::out_of_core(n, 4, Direction::Forward));
  std::vector<std::vector<cxf>> data;
  for (std::uint64_t k = 0; k < 3; ++k) {
    data.push_back(random_complex<float>(n * n * n, 40 + k));
  }
  auto spans = spans_of(data);
  const auto bt = plan.execute_batch(spans);
  EXPECT_EQ(bt.makespan_ms, 5.4128421634308266);
  ASSERT_EQ(bt.volume_done_ms.size(), 3u);
  EXPECT_EQ(bt.volume_done_ms[0], 2.7064210817154137);
  EXPECT_EQ(bt.volume_done_ms[1], 2.7064210817154137);
  EXPECT_EQ(bt.volume_done_ms[2], 5.4128421634308266);
  EXPECT_EQ(bt.volume_member, (std::vector<std::size_t>{0, 1, 0}));
}

TEST(BatchSharded, DealtVolumesOverlapAcrossMembers) {
  // Each dealt run starts from its own member's clock and drains only
  // that member: volumes on two cards finish together, while a third on
  // a card that already ran one queues behind it.
  const std::size_t n = 32;
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(group, PlanDesc::sharded3d(n, 4, Direction::Forward));
  auto data = make_volumes(3, n, 910);
  auto spans = spans_of(data);
  group.reset_clocks();
  const auto bt = plan.deal_batch(spans);
  ASSERT_EQ(bt.volume_done_ms.size(), 3u);
  EXPECT_EQ(bt.volume_done_ms[0], bt.volume_done_ms[1]);
  EXPECT_GT(bt.volume_done_ms[2], bt.volume_done_ms[0]);
  EXPECT_EQ(bt.makespan_ms, bt.volume_done_ms[2]);
  EXPECT_EQ(group.device(0).elapsed_ms(), bt.volume_done_ms[2]);
  EXPECT_EQ(group.device(1).elapsed_ms(), bt.volume_done_ms[1]);
}

TEST(BatchSharded, FullyLostFleetRaisesDeviceLostFromEveryKind) {
  const std::size_t n = 32;
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  auto& reg = PlanRegistry::of(group);
  const auto sharded = reg.get_or_create(
      PlanDesc::sharded3d(n, 4, Direction::Forward));
  const auto dealt = reg.get_or_create(
      PlanDesc::out_of_core(n, 4, Direction::Forward));
  group.faults(0).arm(sim::FaultKind::DeviceLost, 1);
  group.faults(1).arm(sim::FaultKind::DeviceLost, 1);
  auto data = make_volumes(1, n, 911);
  EXPECT_THROW(sharded->execute_host(std::span<cxf>(data[0])),
               sim::DeviceLostError);
  ASSERT_EQ(group.alive_count(), 0u);
  // With nobody left, every kind fails typed before doing any work.
  for (const auto& plan : {sharded, dealt}) {
    SCOPED_TRACE(plan->desc().to_string());
    EXPECT_THROW(plan->execute_host(std::span<cxf>(data[0])),
                 sim::DeviceLostError);
    auto spans = spans_of(data);
    EXPECT_THROW(plan->execute_batch_host(spans), sim::DeviceLostError);
  }
}

}  // namespace
}  // namespace repro::gpufft
