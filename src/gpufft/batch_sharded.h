// Batch-level multi-GPU parallelism: deal whole volumes, or shard each.
//
// ShardedFft3DPlan::execute_batch splits every volume of a batch across N
// cards and pays an all-to-all exchange — the right trade when one
// volume's latency matters or it does not fit one card. A batch of
// independent volumes can instead be dealt (ShardedFft3DPlan::deal_batch):
// volume k to the k-th schedulable member in rotation, each card running
// the same volume loop as a one-member batch of one, with no exchange
// and no group-wide barrier, at the cost of per-volume latency and
// per-member host staging. For B < N dealing idles cards; for B >= N it
// saturates the fleet. choose_batch_strategy, the rule the FFT service
// applies per request batch, prices both on the group's timing twin.
//
// Results are bit-identical either way: decimation arithmetic depends
// only on `shards`, never on the member count.
#pragma once

#include <cstddef>

#include "gpufft/sharded.h"
#include "sim/device_group.h"

namespace repro::gpufft {

/// The deal-vs-shard decision for one batch.
enum class BatchStrategy {
  Deal,   ///< whole volumes to members (ShardedFft3DPlan::deal_batch)
  Shard,  ///< every volume across the fleet (ShardedFft3DPlan batch)
};

inline const char* batch_strategy_name(BatchStrategy s) {
  return s == BatchStrategy::Deal ? "deal" : "shard";
}

struct BatchChoice {
  BatchStrategy strategy{BatchStrategy::Deal};
  double deal_ms{};   ///< priced ShardedFft3DPlan::deal_batch
  double shard_ms{};  ///< priced ShardedFft3DPlan::execute_batch
};

/// Pick deal vs shard for `batch` volumes of the Sharded3D `desc` on
/// `group`'s schedulable members, run under `policy`. Both sides are
/// priced (dry_run_ms) with the schedule that would run, through the plan
/// `desc` itself builds (its TuneConfig included): the dealt batch, and
/// the sharded batch with the decomposition choose_decomposition gives,
/// in the schedule execute_batch runs (one execute() per volume when
/// `policy` verifies, else the priced issue order). Deal wins ties.
BatchChoice choose_batch_strategy(sim::DeviceGroup& group,
                                  const PlanDesc& desc, std::size_t batch,
                                  const ExecPolicy& policy = {});

}  // namespace repro::gpufft
