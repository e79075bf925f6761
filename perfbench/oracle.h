// The correctness oracle: every output the benchmark checks is compared
// with the host FFT library (src/fft) applied to the same input.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "common/complex.h"
#include "fft/plan.h"
#include "fft/real.h"
#include "gpufft/plan_desc.h"

namespace perfbench {

using repro::cxf;

struct Verdict {
  double rel_l2 = 0.0;  ///< relative L2 error over the logical elements
  bool ok = false;
};

class Oracle {
 public:
  /// Check `output`, the host volume after transforming `input`. Complex
  /// volumes are dense (execute_host re-pitches padded rows itself); real
  /// ones use the split half-spectrum layout of gpufft/real3d.h. Mixed3D plans must match the host library
  /// bit for bit (they run its radix schedule in the same order); every
  /// other kind must stay within fft_error_bound of the volume.
  Verdict check(const repro::gpufft::PlanDesc& desc,
                std::span<const cxf> input, std::span<const cxf> output);

 private:
  repro::fft::Plan3D<float>& complex_plan(repro::Shape3 shape,
                                          repro::fft::Direction dir);

  std::map<std::tuple<std::size_t, std::size_t, std::size_t, int>,
           std::unique_ptr<repro::fft::Plan3D<float>>>
      complex_;
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>,
           std::unique_ptr<repro::fft::PlanR2C3D<float>>>
      r2c_;
};

}  // namespace perfbench
