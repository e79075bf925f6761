// The two kernels of the Section 3.3 Z-decimation that only the streamed
// schedule needs: the inter-rank twiddle of step 1C and the splits-point
// Z-pencil FFTs of step 2B. The schedule itself — out-of-core on one
// card, sharded across a group, or dealt a volume per card — is
// ShardedFft3DPlan (sharded.h); PlanDesc::out_of_core builds it on one
// card through the PlanRegistry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpufft/plan.h"
#include "gpufft/types.h"

namespace repro::gpufft {

/// splits-point FFTs along the local Z axis of an (nx, ny, splits) slab,
/// one per (x, y) pencil.
class ZPencilFftKernel final : public sim::Kernel {
 public:
  /// `elem_offset` shifts the slab view into `data` (the sharded real plan
  /// runs the Nyquist tail region through a second instance at its offset).
  ZPencilFftKernel(DeviceBuffer<cxf>& data, Shape3 slab, Direction dir,
                   unsigned grid_blocks, std::size_t elem_offset = 0,
                   unsigned threads_per_block = kDefaultThreadsPerBlock);

  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;
  void timing_key(std::vector<std::uint64_t>& key) const override;

 private:
  DeviceBuffer<cxf>& data_;
  Shape3 slab_;
  Direction dir_;
  std::vector<cxf> roots_;
  unsigned grid_;
  std::size_t offset_;
  unsigned threads_;
};

/// Multiply plane k' of an (nx, ny, nk) slab by W_n^(residue * k')
/// (step 1C).
class SlabTwiddleKernel final : public sim::Kernel {
 public:
  SlabTwiddleKernel(DeviceBuffer<cxf>& data, Shape3 slab, std::size_t n,
                    std::size_t residue, Direction dir, unsigned grid_blocks,
                    std::size_t elem_offset = 0,
                    unsigned threads_per_block = kDefaultThreadsPerBlock);

  [[nodiscard]] sim::LaunchConfig config() const override;
  void run_block(sim::BlockCtx& ctx) override;
  void timing_key(std::vector<std::uint64_t>& key) const override;

 private:
  DeviceBuffer<cxf>& data_;
  Shape3 slab_;
  std::vector<cxf> roots_n_;
  std::size_t residue_;
  unsigned grid_;
  std::size_t offset_;
  unsigned threads_;
};

}  // namespace repro::gpufft
