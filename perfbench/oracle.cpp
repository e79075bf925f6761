#include "oracle.h"

#include <cstring>

#include "common/check.h"
#include "common/metrics.h"
#include "gpufft/real3d.h"

namespace perfbench {

using repro::Shape3;
using repro::gpufft::Layout;
using repro::gpufft::PlanDesc;
using repro::gpufft::PlanKind;

repro::fft::Plan3D<float>& Oracle::complex_plan(Shape3 shape,
                                                repro::fft::Direction dir) {
  auto& slot = complex_[{shape.nx, shape.ny, shape.nz, static_cast<int>(dir)}];
  if (!slot) slot = std::make_unique<repro::fft::Plan3D<float>>(shape, dir);
  return *slot;
}

Verdict Oracle::check(const PlanDesc& desc, std::span<const cxf> input,
                      std::span<const cxf> output) {
  REPRO_CHECK(output.size() == input.size());
  const Shape3 s = desc.shape;
  std::vector<cxf> ref;
  if (desc.layout == Layout::RealHalfSpectrum) {
    REPRO_CHECK_MSG(desc.dir == repro::fft::Direction::Forward,
                    "the oracle checks forward real transforms only");
    auto& slot = r2c_[{s.nx, s.ny, s.nz}];
    if (!slot) slot = std::make_unique<repro::fft::PlanR2C3D<float>>(s);
    const auto reals = repro::gpufft::unpack_real_volume<float>(input, s);
    ref.resize(slot->spectrum_elems());
    slot->execute(reals, ref);
  } else {
    REPRO_CHECK(input.size() == s.volume());
    ref.assign(input.begin(), input.end());
    complex_plan(s, desc.dir).execute(ref);
  }

  Verdict v;
  v.rel_l2 = repro::rel_l2_error<float>(output, ref);
  if (desc.kind == PlanKind::Mixed3D) {
    v.ok = std::memcmp(output.data(), ref.data(), ref.size() * sizeof(cxf)) == 0;
  } else {
    v.ok = v.rel_l2 <= repro::fft_error_bound<float>(s.volume());
  }
  return v;
}

}  // namespace perfbench
