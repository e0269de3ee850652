// `cpu_simd` kernel implementations: vectorized fused-step and STDP-row
// kernels. Every other table slot reuses the reference cpu kernel.
//
// Numerical contract (documented in README/DESIGN and asserted by
// tests/test_backend.cpp):
//  * stdp.row.simd is BITWISE-identical to stdp.row — the blocked Philox
//    draws equal the per-call draws bit for bit, skipped draw slots are ones
//    this updater config provably never reads, and the hoisted/lazy gate
//    probabilities equal the recomputed ones exactly (see the kernel body).
//  * lif/izhi.fused.simd reassociates the per-row conductance sum into four
//    accumulators, so currents (and everything downstream) may differ from
//    the cpu backend at the ULP level. End-to-end trajectories can therefore
//    diverge once a borderline spike flips; equivalence is a per-kernel
//    property, not a whole-run one.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>

#include "pss/backend/kernels.hpp"

namespace pss {

namespace {

/// Row gather with four independent accumulators: breaks the serial add
/// chain so the loop pipelines/vectorizes. Reassociated relative to the
/// reference kernel (ULP-level differences).
inline double row_gather4(const double* row,
                          std::span<const ChannelIndex> active_pre) {
  const std::size_t m = active_pre.size();
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t k = 0;
  for (; k + 4 <= m; k += 4) {
    a0 += row[active_pre[k]];
    a1 += row[active_pre[k + 1]];
    a2 += row[active_pre[k + 2]];
    a3 += row[active_pre[k + 3]];
  }
  double acc = (a0 + a1) + (a2 + a3);
  for (; k < m; ++k) acc += row[active_pre[k]];
  return acc;
}

void lif_step_fused_simd(Engine& engine, const LifFusedStepArgs& args) {
  const auto v = args.step.state.v;
  const auto last = args.step.state.last_spike;
  const auto inhibited = args.step.state.inhibited_until;
  const auto flag = args.step.state.spiked;
  const auto currents = args.step.currents;
  const double decay_factor = args.step.decay_factor;
  const auto conductance = args.step.conductance;
  const std::size_t pre_count = args.step.pre_count;
  const auto active_pre = args.step.active_pre;
  const double amplitude = args.step.amplitude;
  const auto threshold_offset = args.step.threshold_offset;
  const TimeMs now = args.step.now;
  const TimeMs dt = args.step.dt;
  const LifParameters p = args.params;

  engine.launch("lif.fused.simd", v.size(), [&](std::size_t i) {
    double ci = decay_factor == 0.0 ? 0.0 : currents[i] * decay_factor;
    if (!active_pre.empty()) {
      ci += amplitude * row_gather4(conductance.data() + i * pre_count,
                                    active_pre);
    }
    currents[i] = ci;

    // Neuron update: identical operation order to the reference kernel.
    flag[i] = 0;
    if (now <= inhibited[i]) {
      v[i] = p.v_reset;
      return;
    }
    if (p.refractory_ms > 0.0 && last[i] != kNeverSpiked &&
        now - last[i] < p.refractory_ms) {
      v[i] = p.v_reset;
      return;
    }
    double vi = lif_integrate(p, v[i], ci, dt);
    const double threshold =
        p.v_threshold + (threshold_offset.empty() ? 0.0 : threshold_offset[i]);
    if (vi > threshold) {
      vi = p.v_reset;
      flag[i] = 1;
      last[i] = now;
    }
    v[i] = vi;
  });
}

void izhikevich_step_fused_simd(Engine& engine,
                                const IzhikevichFusedStepArgs& args) {
  const auto v = args.step.state.v;
  const auto u = args.step.state.u;
  const auto last = args.step.state.last_spike;
  const auto inhibited = args.step.state.inhibited_until;
  const auto flag = args.step.state.spiked;
  const auto currents = args.step.currents;
  const double decay_factor = args.step.decay_factor;
  const auto conductance = args.step.conductance;
  const std::size_t pre_count = args.step.pre_count;
  const auto active_pre = args.step.active_pre;
  const double amplitude = args.step.amplitude;
  const auto threshold_offset = args.step.threshold_offset;
  const TimeMs now = args.step.now;
  const TimeMs dt = args.step.dt;
  const IzhikevichParameters base = args.params;

  engine.launch("izhi.fused.simd", v.size(), [&](std::size_t i) {
    double ci = decay_factor == 0.0 ? 0.0 : currents[i] * decay_factor;
    if (!active_pre.empty()) {
      ci += amplitude * row_gather4(conductance.data() + i * pre_count,
                                    active_pre);
    }
    currents[i] = ci;

    flag[i] = 0;
    if (now <= inhibited[i]) {
      v[i] = base.c;
      return;
    }
    IzhikevichParameters p = base;
    if (!threshold_offset.empty()) p.v_peak += threshold_offset[i];
    flag[i] = izhikevich_step(p, v[i], u[i], ci, dt) ? 1 : 0;
    if (flag[i]) last[i] = now;
  });
}

/// Memo for the eq. 6 / stale-depression gate probabilities, keyed by the
/// exact gap bits *and* the gate parameters. Spike times sit on the dt grid,
/// so an STDP row sees only a handful of distinct gaps per event — caching
/// p_pot/p_dep_stale turns two exp() calls per synapse into two compares.
/// Exact by construction: a hit replays values the gate computed for the
/// same gap under the same parameters; the parameter check also makes stale
/// entries from another updater config impossible, and per-thread storage
/// (never cleared, verified on every probe) keeps partitioned dispatch safe.
struct GateMemoSlot {
  double gap = -1.0;  // gaps are >= 0, so -1 never matches
  double gamma_pot = 0.0;
  double tau_pot = 0.0;
  double gamma_dep = 0.0;
  double tau_stale = 0.0;
  double p_pot = 0.0;
  double p_dep_stale = 0.0;
};
constexpr std::size_t kGateMemoSlots = 256;  // power of two
thread_local GateMemoSlot g_gate_memo[kGateMemoSlots];

void stdp_row_simd(Engine& engine, const StdpRowArgs& a) {
  const auto row = a.row;
  const auto last_pre = a.last_pre_spike;
  const StdpUpdater& updater = *a.updater;
  const CounterRng& rng = *a.rng;
  const StdpUpdaterConfig& cfg = updater.config();
  const bool stochastic = cfg.kind == StdpKind::kStochastic;
  const bool need_dep = updater.consumes_dep_draw();
  const bool need_round = updater.consumes_round_draw();
  const double gamma_pot = cfg.gate.gamma_pot;
  const double tau_pot = cfg.gate.tau_pot;
  const double gamma_dep = cfg.gate.gamma_dep;
  const double tau_stale = cfg.gate.tau_stale;
  const TimeMs t_post = a.t_post;
  const std::uint64_t base = a.counter_base;
  constexpr std::uint64_t kDraws = StdpUpdater::kDrawsPerEvent;
  constexpr std::size_t kBlock = 64;  // eight interleaved Philox batches

  const StochasticGate& gate = updater.gate();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Exact gate probabilities for a never-fired pre: e^(−∞) = +0, so
  // p_pot(∞) = +0 (u_pot ≥ 0 never potentiates) and p_dep_stale(∞) = γ_dep.
  // Hoisting them removes both exp() calls from the stale half of the row.
  const double p_pot_inf = gate.p_pot(kInf);
  const double p_dep_inf = gate.p_dep_stale(kInf);

  const std::size_t n = row.size();
  const std::size_t blocks = (n + kBlock - 1) / kBlock;

  // One logical thread per kBlock synapses: draw the block's uniforms as
  // strided 8-lane Philox batches, then run the block's updates. Keeping
  // draws and updates in one instruction stream lets the core overlap the
  // next block's Philox rounds with this block's exp()-heavy gate/magnitude
  // math — a phase-split layout (whole-row draws, then whole-row updates)
  // serializes the two and loses to the scalar kernel, whose out-of-order
  // window gets that overlap for free. Skipping draw slots this updater
  // config never reads is exact (counter-indexed draws are independent), and
  // blocks touch disjoint counters/synapses, so partitioned dispatch is safe.
  engine.launch("stdp.row.simd", blocks, [&](std::size_t b) {
    const std::size_t begin = b * kBlock;
    const std::size_t count = std::min(kBlock, n - begin);
    const std::uint64_t cbase = base + begin * kDraws;
    double u_pot[kBlock], u_dep[kBlock], u_round[kBlock];
    if (stochastic) {
      rng.uniform_many(cbase + 0, kDraws, std::span<double>(u_pot, count));
      if (need_dep) {
        rng.uniform_many(cbase + 1, kDraws, std::span<double>(u_dep, count));
      }
    }
    if (need_round) {
      rng.uniform_many(cbase + 2, kDraws, std::span<double>(u_round, count));
    }

    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t pre = begin + j;
      const TimeMs t_pre = last_pre[pre];
      const double ur = need_round ? u_round[j] : 0.0;
      if (!stochastic) {
        // The deterministic rule reads only the rounding draw; the gate
        // draws it ignores may be anything.
        const double gap = t_pre == kNeverSpiked ? kInf : t_post - t_pre;
        row[pre] = updater.update_at_post_spike(row[pre], gap, 0.0, 0.0, ur);
        continue;
      }
      const double ud = need_dep ? u_dep[j] : 0.0;
      if (t_pre == kNeverSpiked) {
        row[pre] = updater.update_at_post_spike_gated(
            row[pre], p_pot_inf, p_dep_inf, u_pot[j], ud, ur);
        continue;
      }
      const double gap = t_post - t_pre;
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(gap);
      const std::size_t s =
          static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ull) >> 56) &
          (kGateMemoSlots - 1);
      GateMemoSlot& slot = g_gate_memo[s];
      if (slot.gap != gap || slot.gamma_pot != gamma_pot ||
          slot.tau_pot != tau_pot || slot.gamma_dep != gamma_dep ||
          slot.tau_stale != tau_stale) {
        slot.gap = gap;
        slot.gamma_pot = gamma_pot;
        slot.tau_pot = tau_pot;
        slot.gamma_dep = gamma_dep;
        slot.tau_stale = tau_stale;
        // Fill both probabilities regardless of this config's depression
        // mode so a hit from a config that does read p_dep_stale stays exact.
        slot.p_pot = gate.p_pot(gap);
        slot.p_dep_stale = gate.p_dep_stale(gap);
      }
      row[pre] = updater.update_at_post_spike_gated(
          row[pre], slot.p_pot, slot.p_dep_stale, u_pot[j], ud, ur);
    }
  });
}

}  // namespace

const KernelTable& cpu_simd_kernel_table() {
  static const KernelTable table = [] {
    KernelTable t = cpu_kernel_table();  // start from the reference kernels
    t.lif_step_fused = lif_step_fused_simd;
    t.izhikevich_step_fused = izhikevich_step_fused_simd;
    t.stdp_row = stdp_row_simd;
    return t;
  }();
  return table;
}

}  // namespace pss
