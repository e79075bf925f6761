// Batch-level multi-GPU parallelism: whole volumes dealt to group members.
//
// ShardedFft3DPlan splits ONE volume across N cards and pays an
// all-to-all exchange — the right trade when one volume's latency matters
// or it does not fit one card. A batch of independent volumes can instead
// be dealt: volume k to member k mod N, each card running the
// single-device out-of-core schedule end to end, with no exchange and no
// phase barrier, at the cost of per-volume latency and per-member host
// staging. For B < N dealing idles cards; for B >= N it saturates the
// fleet. choose_batch_strategy, the rule the FFT service applies per
// request batch, prices both plans on the group's timing twin.
//
// Results are bit-identical to ShardedFft3DPlan of the same (n, shards,
// dir): the dealt schedule per member IS the out-of-core schedule, and the
// sharded decimation arithmetic depends only on `shards`.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "gpufft/fft_plan.h"
#include "gpufft/sharded.h"
#include "sim/device_group.h"

namespace repro::gpufft {

/// Timing of one dealt batch.
struct BatchDealTiming {
  double makespan_ms{};  ///< batch wall-clock across the fleet
  std::vector<double> volume_done_ms;  ///< completion offsets from batch start
  std::vector<int> volume_member;      ///< group ordinal that ran each volume

  [[nodiscard]] double volumes_per_sec() const {
    return makespan_ms > 0.0
               ? 1e3 * static_cast<double>(volume_done_ms.size()) /
                     makespan_ms
               : 0.0;
  }
};

/// Deals whole volumes round-robin to the members of a DeviceGroup; each
/// member runs its registry-shared out-of-core plan (decimation `shards`),
/// so any group size works — no divisibility constraints beyond the
/// out-of-core ones. Obtain through a group-attached PlanRegistry:
///
///   auto plan = gpufft::PlanRegistry::of(group).get_or_create(
///       gpufft::PlanDesc::batch_sharded3d(256, 8, Direction::Forward));
///
/// Survives DeviceLost mid-batch: the failing volume restores from its
/// snapshot (taken only while faults are armed) and re-deals to a
/// survivor; completed volumes keep their results.
class BatchShardedFft3DPlan final : public PlanBaseT<float> {
 public:
  BatchShardedFft3DPlan(sim::DeviceGroup& group, std::size_t n,
                        std::size_t shards, Direction dir,
                        TuneConfig tune = {});

  /// Deal `volumes` across the alive members. Volumes dealt to different
  /// cards overlap fully (independent engine timelines); volumes on the
  /// same card run back-to-back, each internally double-buffered.
  BatchDealTiming execute_batch(std::span<const std::span<cxf>> volumes);

  /// Unsupported: the batch is host-resident by construction.
  std::vector<StepTiming> execute_impl(DeviceBuffer<cxf>& data) override;

  /// One volume dealt to the least-loaded alive member.
  std::vector<StepTiming> execute_host(std::span<cxf> data) override;

  /// The FftPlan batch entry point (out-of-core phase rows summed across
  /// volumes); last_total_ms() afterwards is the dealt batch makespan.
  std::vector<StepTiming> execute_batch_host(
      std::span<const std::span<cxf>> volumes) override;

  [[nodiscard]] sim::DeviceGroup& group() const { return *group_; }
  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] std::size_t shards() const { return shards_; }

  /// Timing of the last execute_batch/execute_batch_host.
  [[nodiscard]] const BatchDealTiming& last_batch() const {
    return last_batch_;
  }

 private:
  sim::DeviceGroup* group_;
  std::size_t n_;
  std::size_t shards_;
  /// One registry-shared out-of-core plan per member.
  std::vector<std::shared_ptr<FftPlan>> member_plans_;
  BatchDealTiming last_batch_{};
  /// Out-of-core phase rows of the last batch, summed across volumes.
  std::vector<StepTiming> last_steps_;
};

/// The deal-vs-shard decision for one batch.
enum class BatchStrategy {
  Deal,   ///< whole volumes to members (BatchShardedFft3DPlan)
  Shard,  ///< every volume across the fleet (ShardedFft3DPlan batch)
};

inline const char* batch_strategy_name(BatchStrategy s) {
  return s == BatchStrategy::Deal ? "deal" : "shard";
}

struct BatchChoice {
  BatchStrategy strategy{BatchStrategy::Deal};
  double deal_ms{};   ///< priced BatchShardedFft3DPlan::execute_batch
  double shard_ms{};  ///< priced ShardedFft3DPlan::execute_batch
};

/// Pick deal vs shard for `batch` volumes of the Sharded3D `desc` on
/// `group`'s schedulable members, run under `policy`. Both sides are
/// priced (dry_run_ms) with the schedule that would run: the dealt batch,
/// and the sharded batch with the decomposition choose_decomposition
/// gives and the BatchMode execute_batch runs (Serial when `policy`
/// verifies, else the priced issue order). Deal wins ties.
BatchChoice choose_batch_strategy(sim::DeviceGroup& group,
                                  const PlanDesc& desc, std::size_t batch,
                                  const ExecPolicy& policy = {});

}  // namespace repro::gpufft
