#include "gpufft/batch_sharded.h"

#include <algorithm>
#include <string>

#include "common/metrics.h"
#include "fft/factor.h"
#include "gpufft/registry.h"
#include "gpufft/smallfft.h"

namespace repro::gpufft {
namespace {

/// The TuneConfig slab-depth knob overrides the plan's `shards` when set
/// (same rule as the sharded and out-of-core plans).
std::size_t deal_shards(std::size_t shards, const TuneConfig& tune) {
  return tune.slab_depth != 0 ? tune.slab_depth : shards;
}

/// Member plan description: the single-card out-of-core schedule with the
/// decimation already folded in (slab_depth zeroed so the member plan
/// does not re-apply it).
PlanDesc member_desc(std::size_t n, std::size_t shards, Direction dir,
                     TuneConfig tune) {
  PlanDesc d = PlanDesc::out_of_core(n, shards, dir);
  tune.slab_depth = 0;
  d.tune = tune;
  return d;
}

/// Merge `steps` into the running `total` (duration sums, traffic-weighted
/// bandwidth), matching the execute_batch_host convention elsewhere.
void merge_rows(std::vector<StepTiming>& total, std::vector<double>& traffic,
                const std::vector<StepTiming>& steps) {
  if (total.empty()) {
    total = steps;
    traffic.assign(steps.size(), 0.0);
    for (std::size_t i = 0; i < steps.size(); ++i) {
      traffic[i] = steps[i].gbs * steps[i].ms;
    }
    return;
  }
  for (std::size_t i = 0; i < steps.size(); ++i) {
    total[i].ms += steps[i].ms;
    traffic[i] += steps[i].gbs * steps[i].ms;
  }
}

}  // namespace

BatchShardedFft3DPlan::BatchShardedFft3DPlan(sim::DeviceGroup& group,
                                             std::size_t n,
                                             std::size_t shards,
                                             Direction dir, TuneConfig tune)
    : PlanBaseT<float>(
          group.device(0),
          PlanDesc::batch_sharded3d(n, deal_shards(shards, tune), dir)),
      group_(&group),
      n_(n),
      shards_(deal_shards(shards, tune)) {
  REPRO_CHECK_MSG(n % shards_ == 0,
                  "shards must divide n; got n=" + fft::describe_size(n) +
                      " shards=" + std::to_string(shards_));
  REPRO_CHECK_MSG(shards_ >= 2 && shards_ <= kMaxFactor,
                  "shards must be a supported small-FFT factor");
  REPRO_CHECK_MSG(is_pow2(shards_),
                  "the dealt out-of-core schedule decimates z with one "
                  "power-of-two small-FFT rank; got shards=" +
                      std::to_string(shards_) +
                      " (n itself may be non-pow2)");
  desc_.tune = tune;
  // No group-divisibility constraints: dealing works for any member count
  // because each volume runs whole on one card.
  member_plans_.reserve(group.size());
  for (std::size_t d = 0; d < group.size(); ++d) {
    // Members already lost get no plan; the dealer only targets alive
    // members.
    if (group.device(d).lost()) {
      member_plans_.push_back(nullptr);
      continue;
    }
    member_plans_.push_back(
        PlanRegistry::of(group.device(d))
            .get_or_create(member_desc(n, shards_, dir, tune)));
  }
}

std::vector<StepTiming> BatchShardedFft3DPlan::execute_impl(DeviceBuffer<cxf>&) {
  REPRO_FAIL(
      "batch-sharded plans deal host-resident volumes across a device "
      "group; use execute_batch()/execute_batch_host()");
}

BatchDealTiming BatchShardedFft3DPlan::execute_batch(
    std::span<const std::span<cxf>> volumes) {
  REPRO_CHECK(!volumes.empty());
  for (const auto& v : volumes) REPRO_CHECK(v.size() == n_ * n_ * n_);
  return with_plan_context(desc_, [&] {
    auto alive = group_->schedulable_members();
    REPRO_CHECK_MSG(!alive.empty(),
                    "every device in the group has been lost");
    // Propagate the batch plan's policy so every dealt volume verifies
    // inside its member's out-of-core execute — per-volume bounded
    // recompute with the running member attributed. (Member plans are
    // registry-shared; the policy is per-plan state, set fresh here.)
    for (std::size_t d : alive) {
      member_plans_[d]->set_exec_policy(this->exec_policy());
    }
    const double t0 = group_->elapsed_ms();
    const bool armed = group_->any_faults_armed();
    BatchDealTiming bt;
    bt.volume_done_ms.resize(volumes.size());
    bt.volume_member.resize(volumes.size());
    std::vector<StepTiming> rows;
    std::vector<double> traffic;
    std::vector<cxf> snapshot;
    std::size_t next = 0;
    for (std::size_t k = 0; k < volumes.size(); ++k) {
      const std::span<cxf> data = volumes[k];
      // The out-of-core phase 2 overwrites `data` in place, so only an
      // armed injector can leave a volume torn — snapshot only then.
      if (armed) snapshot.assign(data.begin(), data.end());
      for (;;) {
        const std::size_t d = alive[next % alive.size()];
        ++next;
        try {
          merge_rows(rows, traffic, member_plans_[d]->execute_host(data));
          bt.volume_member[k] = static_cast<int>(d);
          bt.volume_done_ms[k] = group_->device(d).elapsed_ms() - t0;
          break;
        } catch (const sim::DeviceLostError&) {
          alive = group_->schedulable_members();
          if (alive.empty() || snapshot.empty()) throw;
          ++recovery_counters().device_lost_failovers;
          std::copy(snapshot.begin(), snapshot.end(), data.begin());
          // Re-deal this volume to the next survivor in rotation.
        }
      }
    }
    // Members already synced their own volumes (the out-of-core plan
    // drains its device); the group view is just the slowest member.
    bt.makespan_ms = group_->elapsed_ms() - t0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i].gbs = rows[i].ms > 0.0 ? traffic[i] / rows[i].ms : 0.0;
    }
    last_steps_ = std::move(rows);
    last_batch_ = bt;
    last_total_ms_ = bt.makespan_ms;
    return bt;
  });
}

std::vector<StepTiming> BatchShardedFft3DPlan::execute_host(
    std::span<cxf> data) {
  const std::span<cxf> one[] = {data};
  return execute_batch_host(one);
}

std::vector<StepTiming> BatchShardedFft3DPlan::execute_batch_host(
    std::span<const std::span<cxf>> volumes) {
  const BatchDealTiming bt = execute_batch(volumes);
  std::vector<StepTiming> steps = last_steps_;
  finish(steps);
  last_total_ms_ = bt.makespan_ms;
  return steps;
}

BatchChoice choose_batch_strategy(sim::DeviceGroup& group,
                                  const PlanDesc& desc, std::size_t batch,
                                  const ExecPolicy& policy) {
  BatchChoice c;
  c.deal_ms = dry_run_ms(
      group,
      PlanDesc::batch_sharded3d(desc.shape.nx, desc.splits, desc.dir),
      policy, batch, "deal",
      [](FftPlan& plan, std::span<const std::span<cxf>> volumes) {
        dynamic_cast<BatchShardedFft3DPlan&>(plan).execute_batch(volumes);
      });
  c.shard_ms = priced_issue_order(group, desc,
                                  choose_decomposition(group, desc), batch,
                                  policy)
                   .ms;
  c.strategy =
      c.deal_ms <= c.shard_ms ? BatchStrategy::Deal : BatchStrategy::Shard;
  return c;
}

}  // namespace repro::gpufft
