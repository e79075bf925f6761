// Reference values from the source paper (Nukada, Ogata, Endo, Matsuoka,
// "Bandwidth intensive 3-D FFT kernel for GPUs using CUDA", SC 2008) for
// the GeForce 8800 GTX, the card the single_gtx workload simulates. Each
// value names the figure or table cell it was read from. Figure bars are
// read off the plots and so are approximate; table cells are printed.
#pragma once

#include <cstddef>

namespace perfbench::paper {

/// On-board GFLOPS (15 N^3 log2 N flops convention) of the five-step
/// kernel on the 8800 GTX.
struct GflopsPoint {
  std::size_t n;
  double gflops;
};

inline constexpr GflopsPoint kGtxGflops[] = {
    {64, 50.0},   // Figure 2, 64^3, 8800 GTX, bandwidth-intensive bar (~50)
    {128, 72.0},  // Figure 3, 128^3, 8800 GTX, bandwidth-intensive bar (~72)
    {256, 84.4},  // Figure 1, 256^3, 8800 GTX, bandwidth-intensive bar (84.4)
};

/// Per-step time (ms) of the five-step 256^3 transform on the 8800 GTX.
/// The paper prints steps 1 and 3, and steps 2 and 4, as one row each, so
/// both steps of a pair share the row's value. The row's bandwidth (61.2,
/// 57.1 and 48.6 GB/s) is the useful bytes over that time, so the time
/// ratio is the bandwidth ratio inverted.
inline constexpr double kGtxTable7Ms[5] = {
    4.39,  // Table 7, 8800 GTX, steps 1,3: 4.39 ms, 61.2 GB/s
    4.70,  // Table 7, 8800 GTX, steps 2,4: 4.70 ms, 57.1 GB/s
    4.39,  // Table 7, 8800 GTX, steps 1,3
    4.70,  // Table 7, 8800 GTX, steps 2,4
    5.52,  // Table 7, 8800 GTX, step 5: 5.52 ms, 48.6 GB/s
};

}  // namespace perfbench::paper
