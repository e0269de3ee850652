// Randomized cross-backend differential runner: identical generated
// workloads driven through every registered CPU backend (cpu / cpu_simd /
// cpu_sparse) and across worker counts, asserting bitwise equality where the
// backend contract promises it — conv_accumulate and pool_forward against
// test-only dense oracles; stdp_row, current_accumulate, inhibit_scan and
// regular_encode across backends — plus the documented ULP bound for the
// reassociated cpu_simd fused step and network-level worker-count
// invariance per backend.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pss/backend/backend.hpp"
#include "pss/backend/kernels.hpp"
#include "pss/backend/state_pool.hpp"
#include "pss/network/wta_network.hpp"
#include "pss/prop/check.hpp"
#include "pss/prop/generators.hpp"

#include "kernel_oracles.hpp"

namespace pss {
namespace {

using prop::CheckResult;
using prop::Source;

const char* const kBackends[] = {"cpu", "cpu_simd", "cpu_sparse"};
const std::size_t kWorkerGrid[] = {1, 2, 3};

prop::CheckOptions options_with(std::uint32_t cases) {
  prop::CheckOptions options;
  options.cases = cases;
  return options;
}

void assert_bitwise(const std::vector<double>& reference,
                    const std::vector<double>& candidate, const char* what) {
  PSS_PROP_ASSERT(reference.size() == candidate.size(),
                  std::string(what) + ": size mismatch");
  PSS_PROP_ASSERT(std::memcmp(reference.data(), candidate.data(),
                              reference.size() * sizeof(double)) == 0,
                  std::string(what) + ": diverged bitwise");
}

/// Ascending random subset of [0, units), possibly empty.
std::vector<ChannelIndex> gen_active(Source& s, std::size_t units,
                                     double density) {
  std::vector<ChannelIndex> active;
  for (std::size_t u = 0; u < units; ++u) {
    if (s.boolean(density)) active.push_back(static_cast<ChannelIndex>(u));
  }
  return active;
}

/// One generated conv step: geometry, bank, active list and initial
/// currents. The generator reaches the scatter kernel's index-math edges:
/// kernel 1, stride larger than the kernel (pixels in the gaps feed no
/// unit), trailing rows/columns past the last window, and empty active
/// lists.
struct ConvCase {
  ConvAccumulateArgs geometry;  ///< scalars only; bind() adds the spans
  std::vector<double> taps;
  std::vector<ChannelIndex> active;
  std::vector<double> initial;

  ConvAccumulateArgs bind(std::span<double> currents,
                          std::span<double> accumulator) const {
    ConvAccumulateArgs a = geometry;
    a.filters = taps;
    a.active_pre = active;
    a.currents = currents;
    a.accumulator = accumulator;
    return a;
  }
};

ConvCase gen_conv_case(Source& s) {
  ConvCase cc;
  ConvAccumulateArgs& a = cc.geometry;
  a.kernel = s.range(1, 4);
  a.stride = s.range(1, a.kernel + 2);
  a.in_height = a.kernel + s.bits(8);
  a.in_width = a.kernel + s.bits(8);
  a.in_channels = s.range(1, 2);
  a.filter_count = s.range(1, 4);
  a.out_height = (a.in_height - a.kernel) / a.stride + 1;
  a.out_width = (a.in_width - a.kernel) / a.stride + 1;
  cc.taps.resize(a.filter_count * a.in_channels * a.kernel * a.kernel);
  for (double& w : cc.taps) w = s.real(-1.5, 1.5);
  const double density = s.choose({0.0, 0.05, 0.35, 0.9});
  cc.active = gen_active(s, a.in_channels * a.in_height * a.in_width, density);
  a.amplitude = s.real(0.5, 4.0);
  a.decay_factor = s.boolean(0.5) ? s.real(0.1, 0.95) : 0.0;
  cc.initial.resize(a.filter_count * a.out_height * a.out_width);
  for (double& i : cc.initial) i = s.real(-2.0, 2.0);
  return cc;
}

// ---------------------------------------------------------------------------
// conv_accumulate: every backend × worker count is bitwise equal to the
// gather oracle, with decay, stride gaps and clipped trailing pixels. The
// accumulator starts as NaN, so a kernel that skips clearing it fails.

TEST(PropDifferential, ConvAccumulateMatchesGatherOracleBitwise) {
  const CheckResult r = prop::check(
      "diff_conv_accumulate",
      [](Source& s) {
        const ConvCase cc = gen_conv_case(s);
        std::vector<double> reference = cc.initial;
        test::conv_gather_oracle(cc.bind(reference, {}));

        for (const char* name : kBackends) {
          for (std::size_t workers : kWorkerGrid) {
            Engine engine(workers);
            engine.set_grain(0);  // dispatch even these tiny launches
            auto backend = make_backend(name, &engine);
            std::vector<double> currents = cc.initial;
            std::vector<double> accumulator(
                currents.size(), std::numeric_limits<double>::quiet_NaN());
            backend->kernels().conv_accumulate(
                engine, cc.bind(currents, accumulator));
            assert_bitwise(reference, currents, "conv_accumulate vs oracle");
          }
        }
      },
      options_with(60));
  EXPECT_TRUE(r.ok()) << r.report();
}

// ---------------------------------------------------------------------------
// pool_forward: the fired-list kernel matches the dense OR-reduce oracle —
// identical flags and counts everywhere, including clipped edge blocks and
// stale flags left over from a previous step.

TEST(PropDifferential, PoolForwardMatchesOrReduceOracle) {
  const CheckResult r = prop::check(
      "diff_pool_forward",
      [](Source& s) {
        const std::size_t window = s.range(1, 3);
        const std::size_t in_h = s.range(1, 11);  // often not window-aligned
        const std::size_t in_w = s.range(1, 11);
        const std::size_t channels = s.range(1, 3);
        const std::size_t out_h = (in_h + window - 1) / window;
        const std::size_t out_w = (in_w + window - 1) / window;
        const double density = s.choose({0.0, 0.05, 0.3, 0.9});
        std::vector<std::uint8_t> spiked(channels * in_h * in_w);
        std::vector<ChannelIndex> fired;
        for (std::size_t i = 0; i < spiked.size(); ++i) {
          spiked[i] = s.boolean(density) ? 1 : 0;
          if (spiked[i] != 0) fired.push_back(static_cast<ChannelIndex>(i));
        }
        std::vector<std::uint32_t> initial_counts(channels * out_h * out_w);
        for (auto& c : initial_counts) c = static_cast<uint32_t>(s.bits(9));

        PoolForwardArgs args;
        args.fired = fired;
        args.in_width = in_w;
        args.in_height = in_h;
        args.window = window;
        args.out_width = out_w;
        args.out_height = out_h;
        std::vector<std::uint8_t> ref_pooled(initial_counts.size());
        std::vector<std::uint32_t> ref_counts = initial_counts;
        PoolForwardArgs oracle = args;
        oracle.pooled = ref_pooled;
        oracle.pooled_counts = ref_counts;
        test::pool_or_oracle(spiked, oracle);

        for (const char* name : kBackends) {
          for (std::size_t workers : kWorkerGrid) {
            Engine engine(workers);
            engine.set_grain(0);
            auto backend = make_backend(name, &engine);
            std::vector<std::uint8_t> pooled(ref_pooled.size(), 1);
            std::vector<std::uint32_t> counts = initial_counts;
            args.pooled = pooled;
            args.pooled_counts = counts;
            backend->kernels().pool_forward(engine, args);
            PSS_PROP_ASSERT(pooled == ref_pooled,
                            "pool_forward flags diverged from the oracle");
            PSS_PROP_ASSERT(counts == ref_counts,
                            "pool_forward counts diverged from the oracle");
          }
        }
      },
      options_with(60));
  EXPECT_TRUE(r.ok()) << r.report();
}

// ---------------------------------------------------------------------------
// stdp_row: counter-indexed draws make the row update schedule-independent —
// bitwise across backends (the SIMD variant consumes identical Philox draws)
// and worker counts, for generated rules/precisions/roundings.

TEST(PropDifferential, StdpRowIsBitwiseAcrossBackendsAndWorkers) {
  const CheckResult r = prop::check(
      "diff_stdp_row",
      [](Source& s) {
        const StdpUpdaterConfig config = prop::gen_stdp_config(s);
        const StdpUpdater updater(config);
        const std::size_t channels = s.range(4, 100);
        const double t_post = s.real(1.0, 60.0);
        std::vector<double> row(channels);
        for (double& g : row) {
          g = s.real(config.magnitude.g_min, updater.effective_g_max());
        }
        const std::vector<TimeMs> last_pre =
            prop::gen_pre_spike_times(s, channels, t_post,
                                      config.det_window_ms);
        const CounterRng rng(s.bits(0xffffffffull), s.bits(0xffff));
        const std::uint64_t counter_base = s.bits(1u << 20);

        std::vector<double> reference;
        for (const char* name : kBackends) {
          for (std::size_t workers : kWorkerGrid) {
            Engine engine(workers);
            auto backend = make_backend(name, &engine);
            std::vector<double> updated = row;
            StdpRowArgs args;
            args.updater = &updater;
            args.row = updated;
            args.last_pre_spike = last_pre;
            args.t_post = t_post;
            args.rng = &rng;
            args.counter_base = counter_base;
            backend->kernels().stdp_row(engine, args);
            if (reference.empty()) {
              reference = updated;
            } else {
              assert_bitwise(reference, updated, "stdp_row");
            }
          }
        }
      },
      options_with(60));
  EXPECT_TRUE(r.ok()) << r.report();
}

// ---------------------------------------------------------------------------
// current_accumulate + inhibit_scan: the unfused eq. 3 gather and the WTA
// reflex — bitwise everywhere.

TEST(PropDifferential, CurrentAccumulateAndInhibitScanAreBitwise) {
  const CheckResult r = prop::check(
      "diff_accumulate_inhibit",
      [](Source& s) {
        const std::size_t neurons = s.range(2, 40);
        const std::size_t channels = s.range(4, 60);
        std::vector<double> conductance(neurons * channels);
        for (double& g : conductance) g = s.real(0.0, 1.0);
        const std::vector<ChannelIndex> active = gen_active(s, channels, 0.4);
        const double amplitude = s.real(0.5, 4.0);
        std::vector<double> initial(neurons);
        for (double& i : initial) i = s.real(0.0, 3.0);
        std::vector<TimeMs> inhibited_initial(neurons);
        for (TimeMs& t : inhibited_initial) t = s.real(-5.0, 30.0);
        const NeuronIndex winner =
            static_cast<NeuronIndex>(s.bits(neurons - 1));
        const TimeMs until = s.real(0.0, 50.0);

        std::vector<double> ref_currents;
        std::vector<TimeMs> ref_inhibited;
        for (const char* name : kBackends) {
          for (std::size_t workers : kWorkerGrid) {
            Engine engine(workers);
            auto backend = make_backend(name, &engine);
            std::vector<double> currents = initial;
            CurrentAccumulateArgs acc;
            acc.conductance = conductance;
            acc.pre_count = channels;
            acc.active_pre = active;
            acc.amplitude = amplitude;
            acc.currents = currents;
            backend->kernels().current_accumulate(engine, acc);

            std::vector<TimeMs> inhibited = inhibited_initial;
            InhibitScanArgs scan;
            scan.inhibited_until = inhibited;
            scan.winner = winner;
            scan.until = until;
            backend->kernels().inhibit_scan(engine, scan);

            if (ref_currents.empty()) {
              ref_currents = currents;
              ref_inhibited = inhibited;
            } else {
              assert_bitwise(ref_currents, currents, "current_accumulate");
              assert_bitwise(ref_inhibited, inhibited, "inhibit_scan");
            }
          }
        }
      },
      options_with(50));
  EXPECT_TRUE(r.ok()) << r.report();
}

// ---------------------------------------------------------------------------
// regular_encode: phase arithmetic over all channels — identical active
// lists on every backend and worker count, step by step.

TEST(PropDifferential, RegularEncodeEmitsIdenticalActiveLists) {
  const CheckResult r = prop::check(
      "diff_regular_encode",
      [](Source& s) {
        const std::size_t channels = s.range(1, 40);
        const std::vector<double> rates = prop::gen_rates(s, channels, 800.0);
        std::vector<double> phase(channels);
        for (double& p : phase) p = s.unit() * 0.999;
        const TimeMs dt = s.choose({0.5, 1.0});
        const StepIndex steps = static_cast<StepIndex>(s.range(1, 40));

        std::vector<std::vector<ChannelIndex>> reference;
        for (const char* name : kBackends) {
          for (std::size_t workers : kWorkerGrid) {
            Engine engine(workers);
            auto backend = make_backend(name, &engine);
            std::vector<std::vector<ChannelIndex>> emitted;
            for (StepIndex step = 0; step < steps; ++step) {
              std::vector<ChannelIndex> active;
              RegularEncodeArgs args;
              args.rates_hz = rates;
              args.phase = phase;
              args.step = step;
              args.dt = dt;
              args.active = &active;
              backend->kernels().regular_encode(engine, args);
              emitted.push_back(active);
            }
            if (reference.empty()) {
              reference = emitted;
            } else {
              PSS_PROP_ASSERT(emitted == reference,
                              "regular_encode active lists diverged");
            }
          }
        }
      },
      options_with(40));
  EXPECT_TRUE(r.ok()) << r.report();
}

// ---------------------------------------------------------------------------
// Fused LIF step: cpu_simd reassociates the row gather into four
// accumulators — equality only up to the documented ULP bound, on generated
// state (mirrors test_backend's fixed-rig bound, here over random rigs).

std::int64_t ulp_distance(double a, double b) {
  if (a == b) return 0;
  std::int64_t ia, ib;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  if (ia < 0) ia = std::numeric_limits<std::int64_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int64_t>::min() - ib;
  return ia > ib ? ia - ib : ib - ia;
}

TEST(PropDifferential, SimdFusedStepStaysWithinUlpBound) {
  constexpr std::int64_t kMaxUlp = 16;
  const CheckResult r = prop::check(
      "diff_fused_step_ulp",
      [](Source& s) {
        const std::size_t neurons = s.range(2, 60);
        const std::size_t channels = s.range(8, 200);
        const std::vector<ChannelIndex> active = gen_active(s, channels, 0.3);
        const double amplitude = s.real(1.0, 4.0);
        const double decay = s.real(0.0, 0.95);
        const TimeMs now = s.real(0.5, 20.0);

        struct Rig {
          std::unique_ptr<Engine> engine;
          std::unique_ptr<Backend> backend;
          std::unique_ptr<StatePool> pool;
        };
        auto build = [&](const char* name) {
          Rig rig;
          rig.engine = std::make_unique<Engine>(3);
          rig.backend = make_backend(name, rig.engine.get());
          rig.pool = std::make_unique<StatePool>(
              rig.backend.get(), StatePool::Geometry{neurons, channels});
          rig.pool->set_g_bounds(0.0, 1.0);
          return rig;
        };
        Rig a = build("cpu");
        Rig b = build("cpu_simd");
        // Identical generated state on both rigs.
        for (std::size_t sy = 0; sy < neurons * channels; ++sy) {
          const double g = s.real(0.0, 1.0);
          a.pool->g()[sy] = g;
          b.pool->g()[sy] = g;
        }
        for (std::size_t i = 0; i < neurons; ++i) {
          const double v = s.real(-80.0, -55.0);
          const double current = s.real(0.0, 4.0);
          const TimeMs inhibited = s.boolean(0.2) ? now + 5.0 : -1.0;
          for (Rig* rig : {&a, &b}) {
            rig->pool->membrane()[i] = v;
            rig->pool->currents()[i] = current;
            rig->pool->last_spike()[i] = kNeverSpiked;
            rig->pool->inhibited_until()[i] = inhibited;
          }
        }
        for (Rig* rig : {&a, &b}) {
          LifFusedStepArgs args;
          args.params = paper_lif_parameters();
          args.step.state = NeuronStateView{
              rig->pool->membrane(), rig->pool->recovery(),
              rig->pool->last_spike(), rig->pool->inhibited_until(),
              rig->pool->spiked()};
          args.step.currents = rig->pool->currents();
          args.step.decay_factor = decay;
          args.step.conductance = std::as_const(*rig->pool).g();
          args.step.pre_count = channels;
          args.step.active_pre = active;
          args.step.amplitude = amplitude;
          args.step.now = now;
          args.step.dt = 0.5;
          rig->backend->kernels().lif_step_fused(*rig->engine, args);
        }
        for (std::size_t i = 0; i < neurons; ++i) {
          PSS_PROP_ASSERT(
              ulp_distance(a.pool->currents()[i], b.pool->currents()[i]) <=
                  kMaxUlp,
              "fused-step current outside the documented ULP bound");
          PSS_PROP_ASSERT(
              ulp_distance(a.pool->membrane()[i], b.pool->membrane()[i]) <=
                  kMaxUlp,
              "fused-step membrane outside the documented ULP bound");
        }
      },
      options_with(30));
  EXPECT_TRUE(r.ok()) << r.report();
}

// ---------------------------------------------------------------------------
// Network level: per backend, a full generated presentation is worker-count
// invariant — same spike counts, same conductances, bit for bit.

TEST(PropDifferential, NetworkPresentationIsWorkerCountInvariant) {
  const CheckResult r = prop::check(
      "diff_network_worker_invariance",
      [](Source& s) {
        const std::string backend =
            std::string(s.choose({"cpu", "cpu_simd", "cpu_sparse"}));
        const WtaConfig config = prop::gen_wta_config(s, backend);
        const std::vector<double> rates =
            prop::gen_rates(s, config.input_channels, 400.0);

        std::vector<double> ref_g;
        std::vector<std::uint32_t> ref_counts;
        for (std::size_t workers : kWorkerGrid) {
          Engine engine(workers);
          WtaNetwork network(config, &engine);
          const PresentationResult result =
              network.present(rates, 60.0, /*learn=*/true);
          const auto values = network.conductance().values();
          const std::vector<double> g(values.begin(), values.end());
          if (ref_g.empty()) {
            ref_g = g;
            ref_counts = result.spike_counts;
          } else {
            PSS_PROP_ASSERT(result.spike_counts == ref_counts,
                            "spike counts changed with the worker count");
            assert_bitwise(ref_g, g, "post-learning conductances");
          }
        }
      },
      options_with(12));
  EXPECT_TRUE(r.ok()) << r.report();
}

}  // namespace
}  // namespace pss
