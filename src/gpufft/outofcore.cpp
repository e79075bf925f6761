#include "gpufft/outofcore.h"

#include <string>

#include "gpufft/smallfft.h"

namespace repro::gpufft {

ZPencilFftKernel::ZPencilFftKernel(DeviceBuffer<cxf>& data, Shape3 slab,
                                   Direction dir, unsigned grid_blocks,
                                   std::size_t elem_offset,
                                   unsigned threads_per_block)
    : data_(data),
      slab_(slab),
      dir_(dir),
      roots_(make_roots<float>(slab.nz, dir)),
      grid_(grid_blocks),
      offset_(elem_offset),
      threads_(threads_per_block) {
  REPRO_CHECK(data_.size() >= offset_ + slab_.volume());
  REPRO_CHECK(slab_.nz >= 2 && slab_.nz <= kMaxFactor);
}

sim::LaunchConfig ZPencilFftKernel::config() const {
  const std::size_t items = slab_.nx * slab_.ny;
  sim::LaunchConfig c;
  c.name = "zpencil_fft" + std::to_string(slab_.nz);
  c.grid_blocks = grid_;
  c.threads_per_block = threads_;
  c.regs_per_thread = 28;
  c.total_flops = static_cast<double>(items) * fft_small_flops(slab_.nz);
  c.fma_fraction = 0.5;
  c.extra_cycles_per_thread =
      32.0 * static_cast<double>(items) /
      (static_cast<double>(grid_) * c.threads_per_block);
  return c;
}

void ZPencilFftKernel::timing_key(std::vector<std::uint64_t>& key) const {
  key.insert(key.end(), {data_.base_addr(), offset_, slab_.nx, slab_.ny,
                         slab_.nz, static_cast<std::uint64_t>(dir_), grid_,
                         threads_});
}

void ZPencilFftKernel::run_block(sim::BlockCtx& ctx) {
  const std::size_t items = slab_.nx * slab_.ny;
  const int sign = fft::direction_sign(dir_);
  auto d = ctx.global(data_, offset_);
  ctx.threads([&](sim::ThreadCtx& t) {
    cxf v[kMaxFactor];
    for (std::size_t w = t.global_id(); w < items; w += t.total_threads()) {
      // w is already (x + nx*y): x innermost keeps half-warps sequential.
      for (std::size_t q = 0; q < slab_.nz; ++q) {
        v[q] = d.load(t, w + items * q);
      }
      fft_small(v, slab_.nz, sign, roots_.data());
      for (std::size_t q = 0; q < slab_.nz; ++q) {
        d.store(t, w + items * q, v[q]);
      }
    }
  });
}

SlabTwiddleKernel::SlabTwiddleKernel(DeviceBuffer<cxf>& data, Shape3 slab,
                                     std::size_t n, std::size_t residue,
                                     Direction dir, unsigned grid_blocks,
                                     std::size_t elem_offset,
                                     unsigned threads_per_block)
    : data_(data),
      slab_(slab),
      roots_n_(make_roots<float>(n, dir)),
      residue_(residue),
      grid_(grid_blocks),
      offset_(elem_offset),
      threads_(threads_per_block) {
  REPRO_CHECK(data_.size() >= offset_ + slab_.volume());
  REPRO_CHECK(residue_ * (slab_.nz - 1) < n);
}

sim::LaunchConfig SlabTwiddleKernel::config() const {
  sim::LaunchConfig c;
  c.name = "slab_twiddle";
  c.grid_blocks = grid_;
  c.threads_per_block = threads_;
  c.regs_per_thread = 10;
  c.total_flops = 6.0 * static_cast<double>(slab_.volume());
  c.fma_fraction = 0.5;
  return c;
}

void SlabTwiddleKernel::timing_key(std::vector<std::uint64_t>& key) const {
  key.insert(key.end(), {data_.base_addr(), offset_, slab_.nx, slab_.ny,
                         slab_.nz, roots_n_.size(), residue_, grid_,
                         threads_});
}

void SlabTwiddleKernel::run_block(sim::BlockCtx& ctx) {
  const std::size_t plane = slab_.nx * slab_.ny;
  const std::size_t volume = slab_.volume();
  auto d = ctx.global(data_, offset_);
  ctx.threads([&](sim::ThreadCtx& t) {
    for (std::size_t i = t.global_id(); i < volume;
         i += t.total_threads()) {
      const std::size_t kz = i / plane;
      d.store(t, i, roots_n_[residue_ * kz] * d.load(t, i));
    }
  });
}

}  // namespace repro::gpufft
