#include "gpufft/batch_sharded.h"

#include "gpufft/planner.h"

namespace repro::gpufft {

BatchChoice choose_batch_strategy(sim::DeviceGroup& group,
                                  const PlanDesc& desc, std::size_t batch,
                                  const ExecPolicy& policy) {
  BatchChoice c;
  c.deal_ms = dry_run_ms(
      group, desc, policy, batch, "deal",
      [](FftPlan& plan, std::span<const std::span<cxf>> volumes) {
        dynamic_cast<ShardedFft3DPlan&>(plan).deal_batch(volumes);
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
