#include "gpufft/sharded.h"

#include <algorithm>
#include <array>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/metrics.h"
#include "fft/factor.h"
#include "gpufft/cache.h"
#include "gpufft/real3d.h"
#include "gpufft/real_kernels.h"
#include "gpufft/registry.h"
#include "gpufft/smallfft.h"
#include "gpufft/staging.h"

namespace repro::gpufft {
namespace {

/// The members a run may schedule onto. A group with none left raises
/// the typed DeviceLostError the recovery layers above handle.
std::vector<std::size_t> schedulable_or_lost(const sim::DeviceGroup& group) {
  std::vector<std::size_t> members = group.schedulable_members();
  if (members.empty()) {
    sim::DeviceLostError e(group.device(0).device_ref());
    e.add_context("every device in the group has been lost");
    throw e;
  }
  return members;
}

/// Largest prefix of `alive` whose size divides both phase extents
/// (shards for phase 1, n/shards for phase 2). Size 1 always qualifies —
/// a single survivor runs the out-of-core schedule on one card.
std::vector<std::size_t> usable_members(std::vector<std::size_t> alive,
                                        std::size_t shards,
                                        std::size_t local_nz) {
  std::size_t k = alive.size();
  while (k > 1 && (shards % k != 0 || local_nz % k != 0)) --k;
  alive.resize(k);
  return alive;
}

/// True when every ordered pair of `members` has a fabric route whose
/// hop devices (including forwarders outside the member set) are all
/// alive. `group == nullptr` skips the aliveness check (the planning
/// oracle assumes a healthy fleet).
bool peer_route_ok(const sim::Topology& topo, const sim::DeviceGroup* group,
                   std::span<const std::size_t> members) {
  if (members.size() < 2 || !topo.peer_capable()) return false;
  for (std::size_t a : members) {
    for (std::size_t b : members) {
      if (a == b) continue;
      const auto hops = topo.route(a, b);
      if (hops.size() < 2) return false;
      if (group != nullptr) {
        for (std::size_t h : hops) {
          if (group->device(h).lost()) return false;
        }
      }
    }
  }
  return true;
}

/// The member set plus the geometry it runs (shard_layout against the
/// live group). Pencil wants the largest alive prefix k = local_nz * py
/// (py >= 2 a divisor of n) that is fully peer-routable; anything else
/// falls back to the slab prefix rule, with the exchange going direct
/// when the fabric can route it and through host staging otherwise. A
/// single member is always host-staged: the out-of-core schedule.
struct ResolvedShard {
  std::vector<std::size_t> members;
  ShardLayout layout;
};

ResolvedShard resolve_shard(const sim::Topology& topo,
                            const sim::DeviceGroup* group,
                            std::vector<std::size_t> alive, std::size_t n,
                            std::size_t shards, Decomposition preferred) {
  const std::size_t local_nz = n / shards;
  ResolvedShard r;
  if (alive.empty()) return r;
  if (preferred == Decomposition::Pencil) {
    for (std::size_t k = alive.size(); k >= 2 * local_nz; --k) {
      if (k % local_nz != 0) continue;
      const std::size_t py = k / local_nz;
      if (py < 2 || n % py != 0) continue;
      if (!peer_route_ok(topo, group,
                         std::span<const std::size_t>(alive.data(), k))) {
        continue;
      }
      // Phase 1 still assigns whole residues: the largest divisor of
      // `shards` that fits the member count owns them round-robin.
      std::size_t p1 = std::min(k, shards);
      while (shards % p1 != 0) --p1;
      r.members.assign(alive.begin(),
                       alive.begin() + static_cast<std::ptrdiff_t>(k));
      r.layout = {Decomposition::Pencil, Exchange::Peer, k, p1, py};
      return r;
    }
  }
  r.members = usable_members(std::move(alive), shards, local_nz);
  const std::size_t k = r.members.size();
  const bool peer = peer_route_ok(topo, group, r.members);
  r.layout = {Decomposition::Slab,
              peer ? Exchange::Peer : Exchange::HostStaged, k, k, 1};
  return r;
}

/// Order each of `streams` after the current tail of every one of them,
/// through an Event per stream — exact in the streams' own nanoseconds,
/// and a sticky error on any stream reaches them all. Returns the latest
/// tail.
double join_tails(std::span<sim::Stream* const> streams) {
  std::vector<sim::Event> tails(streams.size());
  double latest = 0.0;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    streams[i]->record(tails[i]);
    latest = std::max(latest, tails[i].time_ms());
  }
  for (sim::Stream* s : streams) {
    for (const sim::Event& e : tails) s->wait(e);
  }
  return latest;
}

/// The TuneConfig slab-depth knob overrides the plan's `shards` when set.
std::size_t effective_shards(std::size_t shards, const TuneConfig& tune) {
  return tune.slab_depth != 0 ? tune.slab_depth : shards;
}

/// Per-member phase-2 plausibility check over the final volume: member
/// `mi` wrote a known region of `out` (its plane-group block on slab, its
/// (group, Y-block) unit on pencil), and any legitimate DFT composition
/// keeps that region's energy within the scale-free pass bound. Runs
/// after the group drains, so a phase-2 KernelCorrupt is caught with the
/// producing member attributed before the wrapper's end-to-end check
/// would blame the plan's primary device. Like the per-residue guard it
/// only runs when phase 1 spans several members: a one-card run has
/// nobody else to blame.
void verify_phase2_regions(sim::DeviceGroup& group,
                           const std::vector<std::size_t>& members,
                           const ShardLayout& layout, const PlaneCodec& codec,
                           std::size_t shards, std::span<const cxf> out,
                           double e_in) {
  const std::size_t n = codec.n;
  const std::size_t local_nz = n / shards;
  const std::size_t nm = members.size();
  const std::size_t points = n * n * n;
  const double bound =
      4.0 * static_cast<double>(points) * std::max(e_in, 1e-300);
  for (std::size_t mi = 0; mi < nm; ++mi) {
    double e = 0.0;
    if (layout.decomp == Decomposition::Slab) {
      const std::size_t gpd = local_nz / nm;
      for (std::size_t gl = 0; gl < gpd; ++gl) {
        const std::size_t k = mi * gpd + gl;
        for (std::size_t k2 = 0; k2 < shards; ++k2) {
          const std::size_t z = k + local_nz * k2;
          for (std::size_t r = 0; r < codec.widths.size(); ++r) {
            e += span_energy<float>(
                out.subspan(codec.at(r, n, z), codec.size(r)));
          }
        }
      }
    } else {
      // Pencil units are complex-layout only (one n-wide region).
      const std::size_t plane = n * n;
      const std::size_t py = layout.y_blocks;
      const std::size_t ny = n / py;
      const std::size_t g = mi / py;
      const std::size_t pb = mi % py;
      for (std::size_t k2 = 0; k2 < shards; ++k2) {
        const std::size_t z = g + local_nz * k2;
        e += span_energy<float>(out.subspan(z * plane + pb * ny * n, ny * n));
      }
    }
    if (!pass_energy_plausible(e_in, e, points)) {
      fail_pass_check(group.device(members[mi]), "phase2-energy", bound, e);
    }
  }
}

/// Sum `b`'s duration buckets into `a`.
void accumulate(ShardTiming& a, const ShardTiming& b) {
  a.h2d1_ms += b.h2d1_ms;
  a.fft1_ms += b.fft1_ms;
  a.twiddle_ms += b.twiddle_ms;
  a.d2h1_ms += b.d2h1_ms;
  a.h2d2_ms += b.h2d2_ms;
  a.fft2_ms += b.fft2_ms;
  a.d2h2_ms += b.d2h2_ms;
  a.exchange_bytes += b.exchange_bytes;
}

/// Sum `t`'s per-device buckets into `into` (batch totals across volumes).
void accumulate(ShardedTiming& into, const ShardedTiming& t) {
  if (into.devices.size() < t.devices.size()) {
    into.devices.resize(t.devices.size());
  }
  for (std::size_t d = 0; d < t.devices.size(); ++d) {
    accumulate(into.devices[d], t.devices[d]);
  }
  into.barrier_ms += t.barrier_ms;
}

/// Inner slab-plan description carrying the tuned knobs but not the slab
/// decimation itself (the slab plan must not re-decimate). The pitch knob
/// is cleared too: the exchange stages densely packed slabs, so a padded
/// mixed-radix slab layout never leaves one device.
PlanDesc tuned_slab_desc(PlanDesc d, TuneConfig tune) {
  tune.slab_depth = 0;
  tune.pitch = PitchMode::Dense;
  d.tune = tune;
  return d;
}

/// `desc` with the TuneConfig slab-depth override applied to its splits.
PlanDesc effective_desc(PlanDesc d) {
  d.splits = effective_shards(d.splits, d.tune);
  return d;
}

}  // namespace

ShardedFft3DPlan::ShardedFft3DPlan(sim::DeviceGroup& group, std::size_t n,
                                   std::size_t shards, Direction dir,
                                   TuneConfig tune)
    : ShardedFft3DPlan(group, [&] {
        PlanDesc d = PlanDesc::sharded3d(n, shards, dir);
        d.tune = tune;
        return d;
      }()) {}

ShardedFft3DPlan::ShardedFft3DPlan(Device& dev, const PlanDesc& desc)
    : ShardedFft3DPlan(std::make_unique<sim::DeviceGroup>(dev), desc) {}

ShardedFft3DPlan::ShardedFft3DPlan(std::unique_ptr<sim::DeviceGroup> own,
                                   const PlanDesc& desc)
    : ShardedFft3DPlan(*own, desc) {
  own_group_ = std::move(own);
}

ShardedFft3DPlan::ShardedFft3DPlan(sim::DeviceGroup& group,
                                   const PlanDesc& desc)
    : PlanBaseT<float>(group.device(0), effective_desc(desc)),
      group_(&group),
      dealt_(desc.kind != PlanKind::Sharded3D),
      opt_(desc.tune),
      n_(desc.shape.nx),
      shards_(desc_.splits),
      codec_{n_, desc.layout == Layout::RealHalfSpectrum
                     ? std::vector<std::size_t>{n_ / 2, 1}
                     : std::vector<std::size_t>{n_}},
      c2r_(desc.layout == Layout::RealHalfSpectrum &&
           desc.dir == Direction::Inverse),
      slab_shape_{n_, n_, n_ / shards_},
      host_work_(dealt_ ? 0 : desc_.buffer_elements()),
      // Dealt kinds stage per member, outside the group's staging count.
      staging_lease_(dealt_ ? sim::DeviceGroup::HostStagingLease()
                            : sim::DeviceGroup::HostStagingLease(
                                  group, desc_.buffer_elements() *
                                             sizeof(cxf))),
      dealt_work_(group.size()) {
  REPRO_CHECK_MSG((desc.kind == PlanKind::Sharded3D ||
                   desc.kind == PlanKind::OutOfCore) &&
                      desc.shape == cube(n_),
                  "Z-decimated plans transform Sharded3D or OutOfCore "
                  "cubes; got " +
                      desc.to_string());
  REPRO_CHECK_MSG(n_ % shards_ == 0,
                  "shards must divide n; got n=" + fft::describe_size(n_) +
                      " shards=" + std::to_string(shards_));
  REPRO_CHECK_MSG(shards_ >= 2 && shards_ <= kMaxFactor,
                  "shards must be a supported small-FFT factor");
  REPRO_CHECK_MSG(is_pow2(shards_),
                  "the z decimation runs one power-of-two small-FFT rank "
                  "across shards; got shards=" + std::to_string(shards_) +
                      " (n itself may be non-pow2 — those slabs run the "
                      "mixed-radix plan)");
  const bool real = desc.layout == Layout::RealHalfSpectrum;
  if (real) {
    REPRO_CHECK_MSG(is_pow2(n_),
                    "sharded real plans still need power-of-two extents "
                    "(the packed half-length X pass runs the radix-4/2 "
                    "fine kernel); got n=" + fft::describe_size(n_) +
                        " — transform a complex copy through the sharded "
                        "complex plan, which accepts any n");
    REPRO_CHECK_MSG(n_ >= 32,
                    "sharded real plans need n >= 32 (the half-length X "
                    "fine stages need n/2 >= 16)");
  }
  // Group sizes that divide neither phase extent are allowed: execution
  // falls back to the largest member prefix that does (usable_members),
  // exactly as the failover path does after losing a card. The batch
  // planner's deal-vs-shard rule models the same prefix.
  slab_plans_.resize(group.size());
  tw_half_.resize(group.size());
  tw_full_.resize(group.size());
  for (std::size_t d = 0; d < group.size(); ++d) {
    // A member already lost to a fault gets no per-member resources
    // (building them would throw); the schedule never assigns it work.
    auto& dev = group.device(d);
    if (dev.lost()) continue;
    if (c2r_) {
      // Phase 2 finishes with the fused c2r pass; share its tables now.
      tw_half_[d] = ResourceCache::of(dev).twiddles<float>(n_ / 2, desc.dir);
      tw_full_[d] = ResourceCache::of(dev).twiddles<float>(n_, desc.dir);
      continue;
    }
    // Phase 1 runs the whole slab plan: five-step or mixed-radix for
    // complex slabs, r2c X fine + coarse Y/local-Z for real ones.
    slab_plans_[d] = PlanRegistry::of(dev).get_or_create(tuned_slab_desc(
        real ? PlanDesc::real3d(slab_shape_, desc.dir)
             : PlanDesc::dense3d(slab_shape_, desc.dir, Precision::F32),
        desc.tune));
  }
  // Plans built on a timing twin are the pricing; they never price. A
  // dealt run is one card, so only sharded kinds choose.
  if (!dealt_ && !group.dry()) decomp_ = choose_decomposition(group, desc_);
}

void ShardedFft3DPlan::set_decomposition(Decomposition d) {
  REPRO_CHECK_MSG(d == Decomposition::Slab || desc_.layout == Layout::Complex,
                  "half-spectrum sharded plans run the slab decomposition "
                  "only");
  decomp_ = d;
}

std::vector<StepTiming> ShardedFft3DPlan::execute_impl(DeviceBuffer<cxf>&) {
  REPRO_FAIL(
      "sharded plans transform host-resident volumes distributed across a "
      "device group; use execute_host()");
}

ShardedTiming ShardedFft3DPlan::execute(std::span<cxf> host_data) {
  REPRO_CHECK(host_data.size() == buffer_elements());
  if (dealt_) {
    const std::span<cxf> one[] = {host_data};
    return deal_batch(one).total;
  }
  return with_plan_context(desc_, [&] {
    return verified_span_run<float>(
        this->device(), this->exec_policy(), desc_, host_data, [&] {
          const std::span<cxf> one[] = {host_data};
          return run_pipelined(one, 0).total;
        });
  });
}

/// One pair of slab leases + streams per member — the out-of-core
/// double-buffering generalized to the fleet. Leases and streams are
/// RAII, so an error unwinding through a frame holding a ctx releases
/// every arena block and folds every stream timeline; the volume loop
/// keeps min(batch, kPipelineContexts) contexts alive so consecutive
/// volumes overlap.
struct ShardedFft3DPlan::VolumeCtx {
  std::vector<std::size_t> members;  ///< group ordinals this ctx spans
  ShardLayout layout;
  std::vector<ResourceCache::Lease<float>> leases;
  std::vector<std::unique_ptr<sim::Stream>> streams;
  /// Peer exchanges only: one exchange stream per *group ordinal* (the
  /// d2d_async indexing — torus routes forward through devices that are
  /// not members), and one Event per member marking its last receive.
  std::vector<sim::Stream*> exch;
  std::vector<sim::Event> recv_done;

  DeviceBuffer<cxf>& slab(std::size_t mi, std::size_t i) {
    return leases[2 * mi + i].buffer();
  }
  /// Peer receive buffer of member `mi` (appended after the slab pairs).
  DeviceBuffer<cxf>& recv(std::size_t mi) {
    return leases[2 * members.size() + mi].buffer();
  }
  sim::Stream& stream(std::size_t mi, std::size_t i) {
    return *streams[2 * mi + i];
  }
  [[nodiscard]] double max_tail_ms() const {
    double ms = 0.0;
    for (const auto& s : streams) ms = std::max(ms, s->ready_ms());
    return ms;
  }
  /// Order every stream after every stream's tail; returns that tail.
  double fence() {
    std::vector<sim::Stream*> all;
    all.reserve(streams.size());
    for (auto& s : streams) all.push_back(s.get());
    return join_tails(all);
  }
};

std::unique_ptr<ShardedFft3DPlan::VolumeCtx> ShardedFft3DPlan::make_ctx(
    const std::vector<std::size_t>& members, const ShardLayout& layout) {
  const std::size_t plane = codec_.plane();
  const std::size_t slab_elems = plane * std::max(n_ / shards_, shards_);
  auto ctx = std::make_unique<VolumeCtx>();
  ctx->members = members;
  ctx->layout = layout;
  const std::size_t nm = members.size();
  const bool peer = layout.exchange == Exchange::Peer;
  ctx->leases.reserve(2 * nm + (peer ? nm : 0));
  ctx->streams.reserve(2 * nm + (peer ? group_->size() : 0));
  for (std::size_t mi = 0; mi < nm; ++mi) {
    auto& dev = group_->device(members[mi]);
    ctx->leases.push_back(ResourceCache::of(dev).lease<float>(slab_elems));
    ctx->leases.push_back(ResourceCache::of(dev).lease<float>(slab_elems));
    ctx->streams.push_back(std::make_unique<sim::Stream>(dev));
    ctx->streams.push_back(std::make_unique<sim::Stream>(dev));
  }
  if (peer) {
    // Per-member receive buffer: the member's whole phase-2 working set
    // (slab: its block of plane groups, one phase-2 slab per group in
    // codec layout; pencil: its (group, Y-block) unit) lands here
    // directly and phase 2 runs in place — no host staging volume on the
    // peer path.
    const std::size_t recv_elems =
        layout.decomp == Decomposition::Pencil
            ? shards_ * (n_ / layout.y_blocks) * n_
            : (n_ / shards_) / nm * shards_ * plane;
    for (std::size_t mi = 0; mi < nm; ++mi) {
      auto& dev = group_->device(members[mi]);
      ctx->leases.push_back(ResourceCache::of(dev).lease<float>(recv_elems));
    }
    ctx->recv_done.resize(nm);
    ctx->exch.assign(group_->size(), nullptr);
    for (std::size_t d = 0; d < group_->size(); ++d) {
      if (group_->device(d).lost()) continue;
      ctx->streams.push_back(
          std::make_unique<sim::Stream>(group_->device(d)));
      ctx->exch[d] = ctx->streams.back().get();
    }
  }
  return ctx;
}

void ShardedFft3DPlan::enqueue_phase1(VolumeCtx& ctx,
                                      std::span<cxf> host_data,
                                      std::span<cxf> host_work,
                                      ShardedTiming& timing) {
  const PlaneCodec& c = codec_;
  const std::size_t regions = c.widths.size();
  const std::size_t plane = c.plane();
  const std::size_t local_nz = n_ / shards_;
  const std::size_t nm = ctx.members.size();
  const bool peer = ctx.layout.exchange == Exchange::Peer;
  const std::size_t nm1 = peer ? ctx.layout.phase1_members : nm;
  // Slab: member emi owns plane groups [emi*gpd, (emi+1)*gpd) — the same
  // contiguous blocks host-staged phase 2 reads. Pencil: member emi owns
  // (plane group emi / py, Y block emi % py).
  const std::size_t gpd =
      ctx.layout.decomp == Decomposition::Slab ? local_nz / nm : 0;
  const std::size_t py = ctx.layout.y_blocks;
  const std::size_t ny = n_ / py;
  const StagePolicy& sp = this->exec_policy().staging;
  // The per-residue guard attributes a corrupt pass to one of several
  // members before the exchange spreads it; a one-card run skips it.
  const bool verify =
      this->exec_policy().verify != VerifyPolicy::Off && nm1 > 1;
  auto charge = [&timing](const std::vector<sim::PeerLeg>& legs) {
    for (const auto& leg : legs) {
      timing.devices[leg.from].d2h1_ms += leg.dur_ms;
      if (leg.to != leg.from) timing.devices[leg.to].h2d2_ms += leg.dur_ms;
    }
  };

  // ---- Phase 1: residue I on member I mod nm1 (slab FFT + twiddle) ----
  for (std::size_t residue = 0; residue < shards_; ++residue) {
    const std::size_t mi = residue % nm1;
    const std::size_t d = ctx.members[mi];
    const std::size_t local = residue / nm1;
    auto& dev = group_->device(d);
    ShardTiming& t = timing.devices[d];
    sim::Stream& s = ctx.stream(mi, local % 2);
    auto& slab = ctx.slab(mi, local % 2);
    const unsigned grid = opt_.grid_for(dev.spec());

    for (std::size_t j = 0; j < local_nz; ++j) {
      const std::size_t z = residue + shards_ * j;
      for (std::size_t r = 0; r < regions; ++r) {
        t.h2d1_ms += staged_h2d(
            dev, slab,
            std::span<const cxf>(host_data).subspan(c.at(r, n_, z),
                                                    c.size(r)),
            &s, c.at(r, local_nz, j), sp);
      }
    }

    if (c2r_) {
      // The c2r fine pass needs the whole Z axis, which phase 2
      // reassembles; phase 1 runs only the coarse Y/local-Z ranks.
      const Device::StreamGuard guard(dev, s);
      t.fft1_ms += run_real_coarse_slab<float>(dev, slab, slab_shape_,
                                               desc_.dir, opt_);
    } else {
      for (const auto& step : slab_plans_[d]->execute_async(slab, s)) {
        t.fft1_ms += step.ms;
      }
    }

    // Inter-rank Z twiddles over every layout region of the slab.
    for (std::size_t r = 0; r < regions; ++r) {
      SlabTwiddleKernel tw(slab, Shape3{c.widths[r], n_, local_nz}, n_,
                           residue, desc_.dir, grid, c.base(r, local_nz),
                           opt_.threads_per_block);
      t.twiddle_ms += dev.launch_async(tw, s).total_ms;
    }

    if (verify) {
      // Per-pass ABFT guard: the residue's slab output is visible now
      // (functional effects apply at enqueue), so check it before the
      // exchange spreads one member's corruption across the fleet — and
      // attribute a failure to the member that computed the pass.
      double e_res = 0.0;
      for (std::size_t j = 0; j < local_nz; ++j) {
        const std::size_t z = residue + shards_ * j;
        for (std::size_t r = 0; r < regions; ++r) {
          e_res += span_energy<float>(std::span<const cxf>(host_data).subspan(
              c.at(r, n_, z), c.size(r)));
        }
      }
      const double e_out = span_energy<float>(
          std::span<const cxf>(slab.span()).first(local_nz * plane));
      if (!pass_energy_plausible(e_res, e_out, n_ * n_ * n_)) {
        fail_pass_check(dev, "pass-energy",
                        4.0 * static_cast<double>(n_ * n_ * n_) *
                            std::max(e_res, 1e-300),
                        e_out);
      }
    }

    if (!peer) {
      // The download IS the all-to-all send: the planes land in the host
      // staging volume that every card's phase 2 reads back.
      for (std::size_t k = 0; k < local_nz; ++k) {
        const std::size_t z = residue + shards_ * k;
        for (std::size_t r = 0; r < regions; ++r) {
          t.d2h1_ms += staged_d2h(
              dev, host_work.subspan(c.at(r, n_, z), c.size(r)), slab, &s,
              c.at(r, local_nz, k), sp);
        }
        t.exchange_bytes += plane * sizeof(cxf);
      }
      continue;
    }

    // Peer exchange: the planes leave the producer as direct d2d legs in
    // ring order starting at the owner (self-copy first, then mi+1, ...)
    // so concurrent residues drive different links first and the
    // per-link FIFOs fill instead of hot-spotting member 0.
    if (ctx.layout.decomp == Decomposition::Slab) {
      for (std::size_t rr = 0; rr < nm; ++rr) {
        const std::size_t emi = (mi + rr) % nm;
        const std::size_t e = ctx.members[emi];
        for (std::size_t gl = 0; gl < gpd; ++gl) {
          const std::size_t j = emi * gpd + gl;  // slab plane == group k
          // Plane `residue` of the consumer's phase-2 slab for group gl.
          for (std::size_t r = 0; r < regions; ++r) {
            charge(group_->d2d_async(
                d, e, slab, c.at(r, local_nz, j), ctx.recv(emi),
                gl * shards_ * plane + c.at(r, shards_, residue), c.size(r),
                s, std::span<sim::Stream* const>(ctx.exch)));
          }
          t.exchange_bytes += plane * sizeof(cxf);
        }
      }
    } else {
      for (std::size_t rr = 0; rr < nm; ++rr) {
        const std::size_t emi = (mi + rr) % nm;
        const std::size_t e = ctx.members[emi];
        const std::size_t g = emi / py;  // plane group owned by emi
        const std::size_t p = emi % py;  // Y block owned by emi
        charge(group_->d2d_async(
            d, e, slab, g * plane + p * ny * n_, ctx.recv(emi),
            residue * ny * n_, ny * n_, s,
            std::span<sim::Stream* const>(ctx.exch)));
        t.exchange_bytes += ny * n_ * sizeof(cxf);
      }
    }
  }

  if (peer) {
    // Per-member receive fence: an Event on each member's exchange
    // stream marks its last receive (and any forwarding it carried).
    for (std::size_t mi = 0; mi < nm; ++mi) {
      ctx.exch[ctx.members[mi]]->record(ctx.recv_done[mi]);
    }
  }
}

void ShardedFft3DPlan::enqueue_phase2(VolumeCtx& ctx,
                                      std::span<cxf> host_data,
                                      std::span<cxf> host_work,
                                      double vol_start_ms,
                                      ShardedTiming& timing) {
  const PlaneCodec& c = codec_;
  const std::size_t regions = c.widths.size();
  const std::size_t plane = c.plane();
  const std::size_t local_nz = n_ / shards_;
  const std::size_t nm = ctx.members.size();
  const bool peer = ctx.layout.exchange == Exchange::Peer;
  const StagePolicy& sp = this->exec_policy().staging;

  if (!peer) {
    // Phase boundary: every phase-2 group gathers one plane from each
    // phase-1 residue — i.e. from every card — so every stream waits on
    // every stream's tail (on one card: the out-of-core event pair).
    timing.barrier_ms = std::max(vol_start_ms, ctx.fence()) - vol_start_ms;
  } else {
    // Peer exchange: no group-wide barrier. Each member fences its own
    // two streams on (a) its own phase-1 tails (its slabs fed the
    // self-copies) and (b) its receive Event — the last d2d leg landing
    // in its receive buffer. barrier_ms reports the latest member fence
    // for continuity with the host-staged breakdown.
    double latest = vol_start_ms;
    for (std::size_t mi = 0; mi < nm; ++mi) {
      sim::Stream* const own[] = {&ctx.stream(mi, 0), &ctx.stream(mi, 1)};
      const double tail = join_tails(own);
      for (sim::Stream* s : own) s->wait(ctx.recv_done[mi]);
      latest = std::max({latest, tail, ctx.recv_done[mi].time_ms()});
    }
    timing.barrier_ms = latest - vol_start_ms;
  }

  if (ctx.layout.decomp == Decomposition::Pencil) {
    // ---- Pencil phase 2: one (plane-group, Y-block) unit per member ----
    // The receive buffer is already pencil-shaped — shards Z-planes of
    // (ny, n) rows, z-major by residue — so the kernel runs in place and
    // the downloads scatter each output plane's Y-block rows.
    const std::size_t py = ctx.layout.y_blocks;
    const std::size_t ny = n_ / py;
    for (std::size_t mi = 0; mi < nm; ++mi) {
      const std::size_t e = ctx.members[mi];
      const std::size_t g = mi / py;
      const std::size_t p = mi % py;
      auto& dev = group_->device(e);
      ShardTiming& t = timing.devices[e];
      const unsigned grid = opt_.grid_for(dev.spec());
      sim::Stream& s = ctx.stream(mi, 0);
      ZPencilFftKernel fft(ctx.recv(mi), Shape3{n_, ny, shards_}, desc_.dir,
                           grid, 0, opt_.threads_per_block);
      t.fft2_ms += dev.launch_async(fft, s).total_ms;
      for (std::size_t k2 = 0; k2 < shards_; ++k2) {
        const std::size_t z = g + local_nz * k2;
        t.d2h2_ms += staged_d2h(
            dev, host_data.subspan(z * plane + p * ny * n_, ny * n_),
            ctx.recv(mi), &s, k2 * ny * n_, sp);
      }
    }
    return;
  }

  // ---- Phase 2: contiguous block of plane groups per member ----
  // Host-staged runs upload each group's planes into a slab; peer runs
  // find them already in the receive buffer, one phase-2 slab per group,
  // and run in place.
  const std::size_t gpd = local_nz / nm;
  for (std::size_t mi = 0; mi < nm; ++mi) {
    const std::size_t e = ctx.members[mi];
    auto& dev = group_->device(e);
    ShardTiming& t = timing.devices[e];
    const unsigned grid = opt_.grid_for(dev.spec());
    for (std::size_t gl = 0; gl < gpd; ++gl) {
      const std::size_t k = mi * gpd + gl;
      sim::Stream& s = ctx.stream(mi, gl % 2);
      auto& buf = peer ? ctx.recv(mi) : ctx.slab(mi, gl % 2);
      const std::size_t off = peer ? gl * shards_ * plane : 0;

      if (!peer) {
        for (std::size_t r = 0; r < regions; ++r) {
          t.h2d2_ms += staged_h2d(
              dev, buf,
              std::span<const cxf>(host_work)
                  .subspan(c.at(r, n_, shards_ * k), shards_ * c.size(r)),
              &s, c.base(r, shards_), sp);
        }
        t.exchange_bytes += shards_ * plane * sizeof(cxf);
      }

      for (std::size_t r = 0; r < regions; ++r) {
        ZPencilFftKernel fft(buf, Shape3{c.widths[r], n_, shards_},
                             desc_.dir, grid, off + c.base(r, shards_),
                             opt_.threads_per_block);
        t.fft2_ms += dev.launch_async(fft, s).total_ms;
      }

      if (c2r_) {
        // Z is whole again: finish with the fused c2r pass, folding the
        // full 1/(n/2 * n * n) normalization (true inverse).
        RealFineParams fp;
        fp.nx = n_;
        fp.count = n_ * shards_;
        fp.twiddles = opt_.fine_twiddles;
        fp.grid_blocks = grid;
        fp.threads_per_block = static_cast<unsigned>(
            std::max<std::size_t>(n_ / 8, opt_.threads_per_block));
        fp.shmem_pad_words = opt_.shmem_pad_words;
        fp.scale = 1.0 / (static_cast<double>(n_ / 2) *
                          static_cast<double>(n_) * static_cast<double>(n_));
        fp.elem_offset = off;
        RealFineC2RKernel fine(buf, fp, tw_half_[e].get(), tw_full_[e].get());
        t.fft2_ms += dev.launch_async(fine, s).total_ms;
      }

      for (std::size_t k2 = 0; k2 < shards_; ++k2) {
        const std::size_t z = k + local_nz * k2;
        for (std::size_t r = 0; r < regions; ++r) {
          t.d2h2_ms += staged_d2h(
              dev, host_data.subspan(c.at(r, n_, z), c.size(r)), buf, &s,
              off + c.at(r, shards_, k2), sp);
        }
      }
    }
  }
}

std::vector<StepTiming> ShardedFft3DPlan::phase_rows(const ShardedTiming& t,
                                                     std::size_t volumes) {
  ShardTiming sum;
  for (const auto& d : t.devices) accumulate(sum, d);
  const double bytes = static_cast<double>(volumes) *
                       static_cast<double>(buffer_elements()) * sizeof(cxf);
  auto row = [&](const char* name, double ms) {
    return StepTiming{name, ms, ms > 0.0 ? 2.0 * bytes / (ms * 1e6) : 0.0};
  };
  std::vector<StepTiming> steps{
      row("phase1 send", sum.h2d1_ms),
      row("phase1 slab FFT", sum.fft1_ms),
      row("phase1 twiddle", sum.twiddle_ms),
      row("exchange receive", sum.d2h1_ms),
      row("exchange send", sum.h2d2_ms),
      row("phase2 pencil FFT", sum.fft2_ms),
      row("phase2 receive", sum.d2h2_ms),
  };
  finish(steps);
  // The rows are schedule-independent duration sums across the fleet; the
  // cost of the run is the overlapped group makespan.
  last_total_ms_ = t.makespan_ms;
  return steps;
}

std::vector<StepTiming> ShardedFft3DPlan::execute_host(std::span<cxf> data) {
  return phase_rows(execute(data), 1);
}

double ShardedBatchTiming::exchange_occupancy() const {
  std::size_t active = 0;
  double exch = 0.0;
  for (const auto& d : total.devices) {
    if (d.busy_ms() > 0.0) {
      ++active;
      exch += d.exchange_ms();
    }
  }
  return active > 0 && makespan_ms > 0.0
             ? exch / (static_cast<double>(active) * makespan_ms)
             : 0.0;
}

double ShardedBatchTiming::compute_occupancy() const {
  std::size_t active = 0;
  double comp = 0.0;
  for (const auto& d : total.devices) {
    if (d.busy_ms() > 0.0) {
      ++active;
      comp += d.compute_ms();
    }
  }
  return active > 0 && makespan_ms > 0.0
             ? comp / (static_cast<double>(active) * makespan_ms)
             : 0.0;
}

ShardedBatchTiming ShardedFft3DPlan::execute_batch(
    std::span<const std::span<cxf>> volumes) {
  if (dealt_) return deal_batch(volumes);
  REPRO_CHECK(!volumes.empty());
  for (const auto& v : volumes) REPRO_CHECK(v.size() == buffer_elements());
  return with_plan_context(desc_, [&] {
    if (this->exec_policy().verify == VerifyPolicy::Off) {
      // The issue order IS the schedule (the engine FIFOs dispatch in
      // submission order) and the best one depends on the phase balance,
      // so every candidate is priced on the timing twin.
      const std::size_t lookahead =
          volumes.size() > 1 && !group_->dry()
              ? priced_issue_order(*group_, desc_, decomp_, volumes.size(),
                                   this->exec_policy())
                    .lookahead
              : 0;
      return run_pipelined(volumes, lookahead);
    }
    // Verified batches run one volume at a time: the pipelined interleave
    // keeps several volumes in flight, so a failed check could not
    // recompute one volume without replaying the whole window, while
    // execute() gives each volume its own snapshot/recompute loop.
    ShardedBatchTiming bt;
    bt.total.devices.resize(group_->size());
    const double t0 = group_->elapsed_ms();
    for (const auto& v : volumes) {
      accumulate(bt.total, execute(v));
      bt.volume_done_ms.push_back(group_->elapsed_ms() - t0);
    }
    bt.makespan_ms = group_->elapsed_ms() - t0;
    bt.total.makespan_ms = bt.makespan_ms;
    last_timing_ = bt.total;
    last_total_ms_ = bt.makespan_ms;
    return bt;
  });
}

ShardedBatchTiming ShardedFft3DPlan::deal_batch(
    std::span<const std::span<cxf>> volumes) {
  REPRO_CHECK(!volumes.empty());
  for (const auto& v : volumes) REPRO_CHECK(v.size() == buffer_elements());
  return with_plan_context(desc_, [&] {
    std::vector<std::size_t> alive = schedulable_or_lost(*group_);
    const double t0 = group_->elapsed_ms();
    const bool armed = group_->any_faults_armed();
    ShardedBatchTiming bt;
    bt.total.devices.resize(group_->size());
    std::vector<cxf> snapshot;
    std::size_t next = 0;
    for (const std::span<cxf> data : volumes) {
      // Phase 2 overwrites `data` in place, so only an armed injector
      // can leave a volume torn — snapshot only then.
      if (armed) snapshot.assign(data.begin(), data.end());
      for (;;) {
        const std::size_t d = alive[next++ % alive.size()];
        try {
          const std::span<cxf> one[] = {data};
          accumulate(bt.total,
                     verified_span_run<float>(
                         group_->device(d), this->exec_policy(), desc_, data,
                         [&] { return run_pipelined(one, 0, d).total; }));
          bt.volume_member.push_back(d);
          bt.volume_done_ms.push_back(group_->device(d).elapsed_ms() - t0);
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
    bt.makespan_ms = group_->elapsed_ms() - t0;
    bt.total.makespan_ms = bt.makespan_ms;
    last_timing_ = bt.total;
    last_total_ms_ = bt.makespan_ms;
    return bt;
  });
}

ShardedBatchTiming ShardedFft3DPlan::run_pipelined(
    std::span<const std::span<cxf>> volumes, std::size_t lookahead,
    std::optional<std::size_t> dealt) {
  const std::size_t count = volumes.size();
  const std::size_t nctx = std::min(count, kPipelineContexts);
  REPRO_CHECK(lookahead < nctx);
  const bool verify = this->exec_policy().verify != VerifyPolicy::Off;
  REPRO_CHECK_MSG(!verify || count == 1,
                  "verified batches run one volume at a time");
  // A dealt run keeps to its member's clock and drains only that member,
  // so volumes dealt to the other members overlap it.
  Device* const card = dealt ? &group_->device(*dealt) : nullptr;
  const auto now = [&] {
    return card != nullptr ? card->elapsed_ms() : group_->elapsed_ms();
  };
  const auto resolve = [&](std::vector<std::size_t> alive) {
    return resolve_shard(group_->topo(), group_, std::move(alive), n_,
                         shards_, decomp_);
  };
  ResolvedShard shard = dealt ? ResolvedShard{{*dealt}, ShardLayout{}}
                              : resolve(schedulable_or_lost(*group_));
  // Volume k stages through slot k % nctx: slot 0 through host_work_ (a
  // dealt run through its member's own buffer), the others through the
  // extra volumes. Peer exchanges stage on the cards (the per-ctx receive
  // buffers), so the extras are only grown for host-staged runs —
  // including a mid-batch failover that falls back to host staging.
  std::span<cxf> slot0 = host_work_;
  if (dealt) {
    auto& own = dealt_work_[*dealt];
    if (own.empty()) own.resize(buffer_elements());
    slot0 = own;
  }
  const auto ensure_staging = [&] {
    if (shard.layout.exchange != Exchange::HostStaged) return;
    for (std::size_t i = 0; i + 1 < nctx; ++i) {
      if (!host_work_extra_[i].empty()) continue;
      host_work_extra_[i].resize(buffer_elements());
      staging_lease_extra_[i] = sim::DeviceGroup::HostStagingLease(
          *group_, buffer_elements() * sizeof(cxf));
    }
  };
  ensure_staging();
  const auto work = [&](std::size_t k) {
    const std::size_t slot = k % nctx;
    return slot == 0 ? slot0 : std::span<cxf>(host_work_extra_[slot - 1]);
  };
  const double t0 = now();
  // The lone verified volume's input energy, for the per-member phase-2
  // check after the drain.
  const double e_in =
      verify && shard.layout.phase1_members > 1
          ? span_energy<float>(std::span<const cxf>(volumes[0]))
          : 0.0;
  const bool armed = group_->any_faults_armed();
  std::vector<cxf> snapshot;
  ShardedTiming phase1_only;  // the buckets of `snapshot`'s volume
  std::array<std::unique_ptr<VolumeCtx>, kPipelineContexts> ctx;
  std::array<double, kPipelineContexts> vstart;
  vstart.fill(t0);
  // Per volume: its buckets, indexed by group ordinal (stable reporting
  // across failovers; a lost card keeps zero rows), and completion offset.
  std::vector<ShardedTiming> vt(count);
  std::vector<double> done(count);
  // Effects apply at enqueue in program order on disjoint buffers, so any
  // issue order is bit-identical to one volume at a time.
  std::size_t p1 = 0;  // next volume to enter phase 1
  std::size_t p2 = 0;  // next volume to enter phase 2
  for (;;) {
    // Phase 1 runs at most `lookahead` volumes ahead; each staging
    // slot must survive until phase 2 of its volume has been issued.
    const bool do_p1 = p1 < count && p1 <= p2 + lookahead;
    try {
      if (!ctx[0]) {
        for (std::size_t i = 0; i < nctx; ++i) {
          ctx[i] = make_ctx(shard.members, shard.layout);
        }
      }
      if (do_p1) {
        VolumeCtx& c = *ctx[p1 % nctx];
        // WAR fence: volume p1 - nctx read this context's staging volume
        // and slabs during its phase 2; those ops must retire before
        // phase 1 overwrites them. Fresh contexts have zero tails, so the
        // fence is a no-op on the first rotation.
        vstart[p1 % nctx] = std::max(t0, c.fence());
        vt[p1] = ShardedTiming{};
        vt[p1].devices.resize(group_->size());
        enqueue_phase1(c, volumes[p1], work(p1), vt[p1]);
        ++p1;
      } else if (p2 < count) {
        VolumeCtx& c = *ctx[p2 % nctx];
        // Phase 2 is the only stage that overwrites the caller's
        // volume, so it is the only stage that can tear one mid-run.
        if (armed) {
          snapshot.assign(volumes[p2].begin(), volumes[p2].end());
          phase1_only = vt[p2];
        }
        enqueue_phase2(c, volumes[p2], work(p2), vstart[p2 % nctx],
                       vt[p2]);
        done[p2] = c.max_tail_ms() - t0;
        ++p2;
      } else {
        // The drain stays inside the failover scope, contexts alive, so
        // an error still pending on one of their streams surfaces here.
        if (card != nullptr) {
          card->sync_all();
        } else {
          group_->sync_all();
        }
        break;
      }
    } catch (const sim::DeviceLostError&) {
      if (dealt) throw;  // deal_batch re-deals the volume
      // A card is lost only at an enqueue, never at the drain.
      REPRO_CHECK(p2 < count);
      ResolvedShard next = resolve(group_->schedulable_members());
      if (next.members.empty() || (!do_p1 && snapshot.empty())) throw;
      ++recovery_counters().device_lost_failovers;
      // The lost card's streams are dead; drop every context (RAII
      // folds the surviving timelines) and rebuild on the survivors.
      for (auto& c : ctx) c.reset();
      const bool staged = shard.layout.exchange == Exchange::HostStaged;
      shard = std::move(next);
      ensure_staging();
      if (!do_p1) {
        // Phase 2 may have torn volume p2 mid-overwrite; restore it, and
        // drop the failed attempt's buckets as a phase-1 retry does.
        std::copy(snapshot.begin(), snapshot.end(), volumes[p2].begin());
        vt[p2] = phase1_only;
      }
      // Host-staged before and after: volume p2's staged planes in
      // host_work are host memory fully written when its phase 1 was
      // enqueued, so only phase 2 re-runs; a failed phase 1 only read its
      // volume. Otherwise phase 2 reads on-card receive buffers — the
      // dropped ones, or the survivors' fresh, unfilled ones (a torus
      // whose survivors no longer route through a dead card resolves from
      // host staging to peer) — so every volume that has not finished
      // phase 2 re-runs phase 1 too. Those volumes' host data is intact:
      // phase 1 only reads it, and p2's overwrite was just restored.
      if (!staged || shard.layout.exchange != Exchange::HostStaged) {
        p1 = p2;
      }
    }
  }
  if (verify && shard.layout.phase1_members > 1) {
    verify_phase2_regions(*group_, shard.members, shard.layout, codec_,
                          shards_, volumes[0], e_in);
  }
  ShardedBatchTiming bt;
  bt.total.devices.resize(group_->size());
  for (const ShardedTiming& t : vt) accumulate(bt.total, t);
  bt.volume_done_ms = std::move(done);
  bt.makespan_ms = now() - t0;
  bt.total.makespan_ms = bt.makespan_ms;
  last_layout_ = shard.layout;
  last_timing_ = bt.total;
  last_total_ms_ = bt.makespan_ms;
  return bt;
}

std::vector<StepTiming> ShardedFft3DPlan::execute_batch_host(
    std::span<const std::span<cxf>> volumes) {
  return phase_rows(execute_batch(volumes).total, volumes.size());
}

ShardLayout shard_layout(const sim::Topology& topo, std::size_t n,
                         std::size_t shards, std::size_t devices,
                         Decomposition preferred) {
  REPRO_CHECK(devices >= 1);
  REPRO_CHECK_MSG(devices <= topo.size(),
                  "devices exceeds the topology's span");
  std::vector<std::size_t> all(devices);
  for (std::size_t i = 0; i < devices; ++i) all[i] = i;
  return resolve_shard(topo, nullptr, std::move(all), n, shards, preferred)
      .layout;
}

namespace {

/// Priced makespans of one live group, and the zero host volume the dry
/// runs read (dry transfers never write it, so every view may alias it).
struct PriceBook {
  explicit PriceBook(sim::DeviceGroup& /*group*/) {}
  std::unordered_map<std::string, double> ms;
  sim::LazyZeroVector<cxf> zeros;
};

}  // namespace

double dry_run_ms(
    sim::DeviceGroup& group, const PlanDesc& desc, const ExecPolicy& policy,
    std::size_t batch, const std::string& schedule,
    const std::function<void(FftPlan&, std::span<const std::span<cxf>>)>&
        run) {
  REPRO_CHECK_MSG(!group.dry(), "plans on a timing twin never price");
  std::string key = desc.to_string();
  for (const std::string& part :
       {schedule, std::to_string(static_cast<int>(policy.verify)),
        std::to_string(batch)}) {
    key.append(" | ").append(part);
  }
  for (const std::size_t m : group.schedulable_members()) {
    key.append(" ").append(std::to_string(m));
  }
  PriceBook& book = group.local<PriceBook>();
  if (const auto it = book.ms.find(key); it != book.ms.end()) {
    return it->second;
  }
  sim::DeviceGroup& twin = group.timing_twin();
  const std::shared_ptr<FftPlan> plan =
      PlanRegistry::of(twin).get_or_create(desc);
  plan->set_exec_policy(policy);
  const std::size_t elems = plan->buffer_elements();
  if (book.zeros.size() < elems) {
    book.zeros = sim::LazyZeroVector<cxf>(elems);
  }
  const std::vector<std::span<cxf>> volumes(
      batch, std::span<cxf>(book.zeros).first(elems));
  twin.reset_clocks();
  run(*plan, volumes);
  return book.ms[key] = twin.elapsed_ms();
}

double priced_sharded_ms(sim::DeviceGroup& group, const PlanDesc& desc,
                         Decomposition d, std::size_t batch,
                         const ExecPolicy& policy, std::size_t lookahead) {
  const bool verify = policy.verify != VerifyPolicy::Off;
  std::string schedule = d == Decomposition::Pencil ? "pencil" : "slab";
  schedule.append(" lookahead ").append(std::to_string(lookahead));
  return dry_run_ms(
      group, desc, policy, batch, schedule,
      [&](FftPlan& p, std::span<const std::span<cxf>> volumes) {
        auto& plan = dynamic_cast<ShardedFft3DPlan&>(p);
        plan.set_decomposition(d);
        if (verify) {
          plan.execute_batch(volumes);
        } else {
          plan.run_pipelined(volumes, lookahead);
        }
      });
}

IssueOrder priced_issue_order(sim::DeviceGroup& group, const PlanDesc& desc,
                              Decomposition d, std::size_t batch,
                              const ExecPolicy& policy) {
  const std::size_t candidates = policy.verify != VerifyPolicy::Off
                                     ? 1
                                     : std::min(batch, kPipelineContexts);
  const auto price = [&](std::size_t la) {
    return priced_sharded_ms(group, desc, d, batch, policy, la);
  };
  IssueOrder best{0, price(0)};
  for (std::size_t la = 1; la < candidates; ++la) {
    const double ms = price(la);
    if (ms < best.ms) best = {la, ms};
  }
  return best;
}

}  // namespace repro::gpufft
