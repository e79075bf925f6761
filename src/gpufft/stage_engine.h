// Staged Stockham machinery shared by the fine-grained X-axis kernels.
//
// One n-point transform is computed cooperatively by n/4 threads, each
// holding four complex values in registers; stages are radix-4 (radix-2
// fixup for n = 2*4^k) ranks, and between stages the values cross threads
// through shared memory exchanging all real parts first, then all
// imaginary parts (Section 3.2's half-footprint exchange). The complex
// step-5 kernel (fine_kernel.*) and the real pack/unpack kernels
// (real_kernels.*) differ only in how stage-0 inputs are produced and
// where the natural-order outputs go, so run_fine_stages() takes those as
// callbacks and keeps every butterfly, twiddle index, and shared-memory
// access pattern in one place.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "fft/factor.h"
#include "gpufft/smallfft.h"
#include "gpufft/types.h"

namespace repro::gpufft {

/// Padded shared-memory index: insert one word every `pad_words` so that
/// the power-of-two strides of the butterfly exchange spread across banks.
/// `pad_words` is a tuning knob (TuneConfig::shmem_pad_words); 0 disables
/// padding, 16 is the paper's choice for the 16-bank G80.
constexpr std::size_t shmem_pad(std::size_t i, std::size_t pad_words) {
  return pad_words == 0 ? i : i + i / pad_words;
}
constexpr std::size_t shmem_pad(std::size_t i) { return shmem_pad(i, 16); }

/// Addressing/loop cycles per thread per stage of one transform.
inline constexpr double kFineAddressingCyclesPerStage = 22.0;

/// One Stockham rank of the staged fine-grained FFT.
struct FineStage {
  std::size_t radix;
  std::size_t l;  ///< twiddle groups
  std::size_t m;  ///< butterfly span
};

/// Radix-4/2 stage decomposition of an n-point transform (n a power of
/// two, >= 16 so every thread owns exactly four values).
inline std::vector<FineStage> fine_stages(std::size_t n) {
  std::vector<FineStage> sts;
  std::size_t m = 1;
  while (m < n) {
    const std::size_t rem = n / m;
    const std::size_t radix = rem % 4 == 0 ? 4 : 2;
    sts.push_back(FineStage{radix, rem / radix, m});
    m *= radix;
  }
  return sts;
}

/// FP operations of one staged n-point transform as implemented.
inline double fine_flops_per_transform(std::size_t n) {
  double flops = 0.0;
  std::size_t m = 1;
  while (m < n) {
    const std::size_t radix = (n / m) % 4 == 0 ? 4 : 2;
    const double butterflies = static_cast<double>(n / radix);
    flops += butterflies *
             (radix == 4 ? fft::kFft4Flops + 3.0 * 6.0 : 4.0 + 6.0);
    m *= radix;
  }
  return flops;
}

/// Twiddle fetches of one staged n-point transform: every butterfly of a
/// radix-r stage multiplies r-1 values by a table (or recomputed) twiddle.
/// The planner and the kernels' cost configs share this count so a
/// recomputing candidate is charged the same work the executor models.
inline double fine_twiddle_fetches(std::size_t n) {
  double fetches = 0.0;
  std::size_t m = 1;
  while (m < n) {
    const std::size_t radix = (n / m) % 4 == 0 ? 4 : 2;
    fetches += static_cast<double>(n / radix) *
               static_cast<double>(radix - 1);
    m *= radix;
  }
  return fetches;
}

/// Minimum per-transform element stride of the exchange window in shared
/// memory (n scalars plus anti-bank-conflict padding).
constexpr std::size_t fine_min_sh_stride(std::size_t n,
                                         std::size_t pad_words = 16) {
  return shmem_pad(n - 1, pad_words) + 1;
}

/// Run every mixed-radix Stockham stage of one line held in thread-local
/// storage, ping-ponging between `a` and `b`. Stage order, butterflies and
/// twiddle indices replicate fft::stockham_multirow exactly (same
/// radix_schedule, same fft_small ops, same roots-table values), so the
/// device result is bit-for-bit the host reference. Returns the buffer
/// holding the natural-order result (`a` or `b`).
template <typename T>
inline cx<T>* run_mixed_line(const std::vector<fft::StageSpec>& stages,
                             cx<T>* a, cx<T>* b,
                             const std::vector<cx<T>>& roots, int sign) {
  cx<T>* src = a;
  cx<T>* dst = b;
  for (const fft::StageSpec& st : stages) {
    const std::size_t R = st.radix;
    for (std::size_t j = 0; j < st.l; ++j) {
      for (std::size_t k = 0; k < st.m; ++k) {
        const std::size_t in0 = k + st.m * j;
        const std::size_t out0 = k + st.m * R * j;
        cx<T> v[fft::kMaxMixedRadix];
        for (std::size_t q = 0; q < R; ++q) {
          v[q] = src[in0 + q * st.m * st.l];
        }
        fft_small(v, R, sign, static_cast<const cx<T>*>(nullptr));
        dst[out0] = v[0];
        for (std::size_t r = 1; r < R; ++r) {
          dst[out0 + r * st.m] = roots[j * st.m * r] * v[r];
        }
      }
    }
    std::swap(src, dst);
  }
  return src;
}

/// FP operations of one mixed-radix line transform of length n (butterfly
/// cost plus the R-1 twiddle multiplies per butterfly).
inline double mixed_line_flops(std::size_t n) {
  double flops = 0.0;
  for (const fft::StageSpec& st : fft::radix_schedule(n)) {
    const double butterflies = static_cast<double>(st.l * st.m);
    flops += butterflies * (fft_small_flops(st.radix) +
                            6.0 * static_cast<double>(st.radix - 1));
  }
  return flops;
}

/// Every index the staged transform derives from a thread id, built once
/// per kernel object: none depends on the wave, so run_fine_stages()
/// reads these tables instead of dividing per element. Tables hold one
/// entry per register slot, four per thread, laid out tid * 4 + slot;
/// slot b * radix + q is butterfly b's q-th value. Per-stage tables add a
/// leading stage index. The planner's exchange and twiddle models walk
/// the same tables, so kernel and model share one copy of the addressing.
class FineIndex {
 public:
  FineIndex() = default;
  /// Index of an n-point staged transform run by `threads` threads (whole
  /// n/4-thread transform groups) over an exchange window of `sh_stride`
  /// elements per group, padded every `pad_words` words (shmem_pad).
  FineIndex(std::size_t n, std::size_t threads, std::size_t sh_stride,
            std::size_t pad_words)
      : stages_(fine_stages(n)), per_stage_(threads * 4) {
    const std::size_t tpt = n / 4;
    REPRO_CHECK(tpt > 0 && threads % tpt == 0);
    const std::size_t n_stages = stages_.size();
    sub_.resize(threads);
    load_.resize(per_stage_);
    store_.resize(per_stage_);
    sh_in_.resize(n_stages * per_stage_);
    sh_out_.resize(n_stages * per_stage_);
    twiddle_.resize(n_stages * per_stage_);
    for (std::size_t tid = 0; tid < threads; ++tid) {
      const std::size_t sub = tid / tpt;
      const std::size_t lane = tid % tpt;
      const std::size_t shb = sub * sh_stride;
      sub_[tid] = static_cast<std::uint32_t>(sub);
      for (std::size_t si = 0; si < n_stages; ++si) {
        const FineStage& st = stages_[si];
        const std::size_t row = si * per_stage_ + tid * 4;
        for (std::size_t b = 0; b < 4 / st.radix; ++b) {
          const std::size_t u = lane + b * tpt;
          const std::size_t j = u / st.m;
          const std::size_t k = u % st.m;
          for (std::size_t q = 0; q < st.radix; ++q) {
            const std::size_t slot = b * st.radix + q;
            const std::size_t in = k + st.m * (j + st.l * q);
            const std::size_t out = k + st.m * (st.radix * j + q);
            sh_in_[row + slot] =
                static_cast<std::uint32_t>(shb + shmem_pad(in, pad_words));
            sh_out_[row + slot] =
                static_cast<std::uint32_t>(shb + shmem_pad(out, pad_words));
            twiddle_[row + slot] = static_cast<std::uint32_t>(j * st.m * q);
            if (si == 0) load_[tid * 4 + slot] = static_cast<std::uint32_t>(in);
            if (si + 1 == n_stages) {
              store_[tid * 4 + slot] = static_cast<std::uint32_t>(out);
            }
          }
        }
      }
    }
  }

  [[nodiscard]] const std::vector<FineStage>& stages() const {
    return stages_;
  }
  /// Transform group of thread `tid` within the block (tid / (n/4)).
  [[nodiscard]] std::size_t sub(unsigned tid) const { return sub_[tid]; }
  /// Stage-0 input positions of the thread's four slots.
  [[nodiscard]] const std::uint32_t* load(unsigned tid) const {
    return load_.data() + tid * 4;
  }
  /// Natural-order output positions of the last stage's four slots.
  [[nodiscard]] const std::uint32_t* store(unsigned tid) const {
    return store_.data() + tid * 4;
  }
  /// Exchange-window index (group base plus padded position) of stage
  /// `si`'s inputs, and of its outputs.
  [[nodiscard]] const std::uint32_t* sh_in(std::size_t si,
                                           unsigned tid) const {
    return sh_in_.data() + si * per_stage_ + tid * 4;
  }
  [[nodiscard]] const std::uint32_t* sh_out(std::size_t si,
                                            unsigned tid) const {
    return sh_out_.data() + si * per_stage_ + tid * 4;
  }
  /// Twiddle index W_n^idx of stage `si`'s slots (0 for each butterfly's
  /// untwiddled first value).
  [[nodiscard]] const std::uint32_t* twiddle(std::size_t si,
                                             unsigned tid) const {
    return twiddle_.data() + si * per_stage_ + tid * 4;
  }

 private:
  std::vector<FineStage> stages_;
  std::size_t per_stage_{};
  std::vector<std::uint32_t> sub_;
  std::vector<std::uint32_t> load_;
  std::vector<std::uint32_t> store_;
  std::vector<std::uint32_t> sh_in_;
  std::vector<std::uint32_t> sh_out_;
  std::vector<std::uint32_t> twiddle_;
};

/// Run every stage of one wave of transforms: the block's transform
/// groups starting at group index `base` (groups past `count` are idle),
/// addressed through `ix`. Callbacks:
///   load(t, tx, pos)      -> cx<T>   stage-0 input `pos` of transform tx
///   store(t, tx, pos, v)             natural-order output `pos`
///   twiddle(t, idx)       -> cx<T>   W_n^idx through the kernel's path
/// `sh` is the exchange window `ix` was built for; `vals`/`tmp` are the
/// emulated per-thread registers (4 per thread), allocated once by the
/// caller across waves. The callbacks run inside barrier phases: `load`
/// may read shared data written in a phase before this call, and `store`
/// may overwrite the exchange window (the final phase no longer reads it).
template <typename T, typename Load, typename Store, typename Twiddle>
void run_fine_stages(sim::BlockCtx& ctx, const FineIndex& ix, int sign,
                     sim::SharedView<T>& sh, std::size_t base,
                     std::size_t count, cx<T>* vals, T* tmp, Load&& load,
                     Store&& store, Twiddle&& twiddle) {
  const std::vector<FineStage>& sts = ix.stages();
  const std::size_t n_stages = sts.size();

  // Butterfly of stage `st` over v[0..radix), twiddling the outputs with
  // the slots' indices `tw` (tw[0] is the untwiddled value's).
  auto butterfly = [&](sim::ThreadCtx& t, const FineStage& st,
                       const std::uint32_t* tw, cx<T>* v) {
    if (st.radix == 4) {
      fft::fft4(v, sign);
      for (std::size_t r = 1; r < 4; ++r) {
        v[r] = twiddle(t, tw[r]) * v[r];
      }
    } else {
      const cx<T> d = v[0] - v[1];
      v[0] = v[0] + v[1];
      v[1] = twiddle(t, tw[1]) * d;
    }
  };

  // ---- stage 0: load through the caller (coalesced: lane-consecutive) ----
  {
    const FineStage& st = sts[0];
    ctx.threads([&](sim::ThreadCtx& t) {
      const std::size_t tx = base + ix.sub(t.tid);
      if (tx >= count) return;
      const std::uint32_t* pos = ix.load(t.tid);
      const std::uint32_t* tw = ix.twiddle(0, t.tid);
      cx<T>* v = vals + t.tid * 4;
      for (std::size_t s = 0; s < 4; s += st.radix) {
        for (std::size_t q = 0; q < st.radix; ++q) {
          v[s + q] = load(t, tx, pos[s + q]);
        }
        butterfly(t, st, tw + s, v + s);
      }
    });
  }

  // ---- inter-stage exchanges through shared memory ----
  for (std::size_t si = 1; si < n_stages; ++si) {
    const FineStage& st = sts[si];
    // Real parts: write all, then read all (paper's half-footprint
    // exchange), then the same for imaginary parts. The values sit at the
    // previous stage's output positions and move to this stage's inputs.
    ctx.threads([&](sim::ThreadCtx& t) {
      if (base + ix.sub(t.tid) >= count) return;
      const std::uint32_t* out = ix.sh_out(si - 1, t.tid);
      for (std::size_t s = 0; s < 4; ++s) {
        sh.store(t, out[s], vals[t.tid * 4 + s].re);
      }
    });
    ctx.threads([&](sim::ThreadCtx& t) {
      if (base + ix.sub(t.tid) >= count) return;
      const std::uint32_t* in = ix.sh_in(si, t.tid);
      for (std::size_t s = 0; s < 4; ++s) {
        tmp[t.tid * 4 + s] = sh.load(t, in[s]);
      }
    });
    ctx.threads([&](sim::ThreadCtx& t) {
      if (base + ix.sub(t.tid) >= count) return;
      const std::uint32_t* out = ix.sh_out(si - 1, t.tid);
      for (std::size_t s = 0; s < 4; ++s) {
        sh.store(t, out[s], vals[t.tid * 4 + s].im);
      }
    });
    ctx.threads([&](sim::ThreadCtx& t) {
      if (base + ix.sub(t.tid) >= count) return;
      // Assemble the next stage's inputs and run its butterflies.
      const std::uint32_t* in = ix.sh_in(si, t.tid);
      const std::uint32_t* tw = ix.twiddle(si, t.tid);
      cx<T>* v = vals + t.tid * 4;
      for (std::size_t s = 0; s < 4; ++s) {
        v[s] = cx<T>{tmp[t.tid * 4 + s], sh.load(t, in[s])};
      }
      for (std::size_t s = 0; s < 4; s += st.radix) {
        butterfly(t, st, tw + s, v + s);
      }
    });
  }

  // ---- final store through the caller (coalesced) ----
  ctx.threads([&](sim::ThreadCtx& t) {
    const std::size_t tx = base + ix.sub(t.tid);
    if (tx >= count) return;
    const std::uint32_t* pos = ix.store(t.tid);
    for (std::size_t s = 0; s < 4; ++s) {
      store(t, tx, pos[s], vals[t.tid * 4 + s]);
    }
  });
}

}  // namespace repro::gpufft
