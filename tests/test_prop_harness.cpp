// The property harness tested against itself: Source primitives and tape
// replay, shrinker termination/determinism/minimality, check() case
// accounting and discard budget, env-var repro plumbing — and the two
// detection drills the harness exists for: a deliberately broken STDP bound
// and a deliberate one-ULP conv divergence from the kernel oracle must both
// be caught with a one-line PSS_PROP_SEED/PSS_PROP_CASE recipe that
// reproduces the failure deterministically.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pss/backend/backend.hpp"
#include "pss/backend/kernels.hpp"
#include "pss/graph/layer_spec.hpp"
#include "pss/prop/check.hpp"
#include "pss/prop/generators.hpp"
#include "pss/prop/shrink.hpp"
#include "pss/robust/fault_injection.hpp"
#include "pss/synapse/parameter_registry.hpp"
#include "pss/synapse/stdp_updater.hpp"

#include "kernel_oracles.hpp"

namespace pss {
namespace {

using prop::CheckOptions;
using prop::CheckResult;
using prop::Source;
using prop::Tape;

CheckOptions quiet_options(std::uint32_t cases = 60) {
  CheckOptions options;
  options.cases = cases;
  options.read_env = false;  // self-tests pin their own seeds
  return options;
}

// ---------------------------------------------------------------------------
// Source primitives.

TEST(PropSource, ZeroTapeYieldsMinimalValues) {
  Source s(Tape{});  // replay of the empty tape: every draw is the minimum
  EXPECT_EQ(s.bits(1000), 0u);
  EXPECT_EQ(s.range(7, 19), 7u);
  EXPECT_EQ(s.unit(), 0.0);
  EXPECT_EQ(s.real(2.5, 9.0), 2.5);
  EXPECT_FALSE(s.boolean(0.99));
  EXPECT_EQ(s.choose({10, 20, 30}), 10);
}

TEST(PropSource, GenerationIsDeterministicPerSeedAndCase) {
  for (std::uint64_t k : {0ull, 1ull, 17ull}) {
    Source a = prop::case_source("p", 99, k);
    Source b = prop::case_source("p", 99, k);
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(a.bits(1u << 20), b.bits(1u << 20));
    }
    EXPECT_EQ(a.tape(), b.tape());
  }
  // Different case index → different tape.
  Source a = prop::case_source("p", 99, 0);
  Source b = prop::case_source("p", 99, 1);
  for (int i = 0; i < 50; ++i) {
    a.bits(1u << 20);
    b.bits(1u << 20);
  }
  EXPECT_NE(a.tape(), b.tape());
}

TEST(PropSource, ReplayReproducesGeneratedValues) {
  Source gen = prop::case_source("replay", 7, 3);
  std::vector<double> values;
  for (int i = 0; i < 20; ++i) values.push_back(gen.real(-3.0, 12.0));
  const bool flag = gen.boolean(0.4);
  const std::uint64_t pick = gen.range(5, 500);

  Source replay(gen.tape());
  for (double v : values) {
    EXPECT_EQ(replay.real(-3.0, 12.0), v);  // bitwise
  }
  EXPECT_EQ(replay.boolean(0.4), flag);
  EXPECT_EQ(replay.range(5, 500), pick);
}

TEST(PropSource, ReplayClampsOutOfBoundChoices) {
  Source s(Tape{999});
  EXPECT_EQ(s.bits(10), 10u);  // clamped, still a valid draw
}

// ---------------------------------------------------------------------------
// Shrinker.

TEST(PropShrink, TerminatesAndMinimizesCountingPredicate) {
  // Fails while the tape holds at least 3 values ≥ 5. Minimal failing tape:
  // exactly [5, 5, 5].
  const auto still_fails = [](const Tape& tape) {
    int big = 0;
    for (std::uint64_t v : tape) big += v >= 5 ? 1 : 0;
    return big >= 3;
  };
  Tape noisy;
  for (std::uint64_t i = 0; i < 40; ++i) noisy.push_back(3 + 7 * (i % 5));
  ASSERT_TRUE(still_fails(noisy));
  prop::ShrinkStats stats;
  const Tape shrunk = prop::shrink_tape(noisy, still_fails, 10000, &stats);
  EXPECT_EQ(shrunk, (Tape{5, 5, 5}));
  EXPECT_GT(stats.evaluations, 0u);
  EXPECT_TRUE(still_fails(shrunk));
}

TEST(PropShrink, DeterministicForAFixedInput) {
  const auto still_fails = [](const Tape& tape) {
    std::uint64_t sum = 0;
    for (std::uint64_t v : tape) sum += v;
    return sum >= 100;
  };
  Tape input;
  for (std::uint64_t i = 0; i < 30; ++i) input.push_back(17 + i);
  const Tape a = prop::shrink_tape(input, still_fails, 5000);
  const Tape b = prop::shrink_tape(input, still_fails, 5000);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(still_fails(a));
}

TEST(PropShrink, RespectsEvaluationBudget) {
  std::uint32_t calls = 0;
  const auto still_fails = [&](const Tape&) {
    ++calls;
    return true;  // everything fails — shrinks all the way to empty
  };
  prop::ShrinkStats stats;
  Tape input(64, 1000);
  prop::shrink_tape(input, still_fails, 25, &stats);
  EXPECT_LE(stats.evaluations, 25u);
  EXPECT_EQ(calls, stats.evaluations);
}

// ---------------------------------------------------------------------------
// check() runner.

TEST(PropCheck, PassingPropertyRunsAllCases) {
  const CheckResult r = prop::check(
      "always_passes", [](Source& s) { s.bits(100); }, quiet_options(40));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.cases_run, 40u);
  EXPECT_TRUE(r.report().empty());
}

TEST(PropCheck, FailingPropertyShrinksAndReportsRepro) {
  const auto property = [](Source& s) {
    // Fails when the generated vector contains a value above 900.
    const std::uint64_t n = s.range(1, 30);
    for (std::uint64_t i = 0; i < n; ++i) {
      PSS_PROP_ASSERT(s.bits(1000) <= 900, "generated value above 900");
    }
  };
  const CheckResult r = prop::check("finds_big_value", property,
                                    quiet_options(200));
  ASSERT_TRUE(r.failed);
  EXPECT_FALSE(r.message.empty());
  // Shrinking drives the case to the minimal shape: one-element vector
  // holding the smallest failing value.
  ASSERT_LE(r.shrunk_tape.size(), 2u);
  EXPECT_EQ(r.shrunk_tape.back(), 901u);
  // The one-line recipe names the exact seed/case pair.
  EXPECT_NE(r.report().find("PSS_PROP_SEED="), std::string::npos);
  EXPECT_NE(r.report().find("PSS_PROP_CASE="), std::string::npos);

  // ...and the recipe actually reproduces: replaying (seed, case) fails
  // identically, twice.
  const CheckResult replay1 =
      prop::run_case("finds_big_value", property, r.seed, r.failing_case);
  const CheckResult replay2 =
      prop::run_case("finds_big_value", property, r.seed, r.failing_case);
  ASSERT_TRUE(replay1.failed);
  EXPECT_EQ(replay1.message, r.message);
  EXPECT_EQ(replay1.failing_tape, r.failing_tape);
  EXPECT_EQ(replay1.shrunk_tape, r.shrunk_tape);
  EXPECT_EQ(replay2.shrunk_tape, replay1.shrunk_tape);
}

TEST(PropCheck, DiscardBudgetGuardsAgainstOverRejectingGenerators) {
  const CheckResult r = prop::check(
      "discards_everything", [](Source&) { prop::discard("nope"); },
      quiet_options(10));
  EXPECT_TRUE(r.failed);
  EXPECT_TRUE(r.gave_up);
  EXPECT_NE(r.report().find("gave up"), std::string::npos);
}

TEST(PropCheck, UnhandledExceptionsCountAsFailures) {
  const CheckResult r = prop::check(
      "throws_logic_error",
      [](Source& s) {
        if (s.bits(1) == 1) throw std::logic_error("boom");
      },
      quiet_options(50));
  ASSERT_TRUE(r.failed);
  EXPECT_NE(r.message.find("boom"), std::string::npos);
}

TEST(PropCheck, EnvVarsReplayASingleCase) {
  const auto property = [](Source& s) {
    PSS_PROP_ASSERT(s.bits(999) % 50 != 17, "hit the magic residue");
  };
  CheckOptions options;
  options.cases = 500;
  options.read_env = true;
  const CheckResult first = prop::check("env_replay", property, options);
  ASSERT_TRUE(first.failed) << "expected the 2% residue to surface in 500 cases";

  ASSERT_EQ(setenv("PSS_PROP_SEED", std::to_string(first.seed).c_str(), 1), 0);
  ASSERT_EQ(setenv("PSS_PROP_CASE",
                   std::to_string(first.failing_case).c_str(), 1),
            0);
  const CheckResult replay = prop::check("env_replay", property, options);
  unsetenv("PSS_PROP_SEED");
  unsetenv("PSS_PROP_CASE");
  ASSERT_TRUE(replay.failed);
  EXPECT_EQ(replay.failing_case, first.failing_case);
  EXPECT_EQ(replay.failing_tape, first.failing_tape);
  EXPECT_EQ(replay.message, first.message);
}

// ---------------------------------------------------------------------------
// Generator sanity: generated structures satisfy their own contracts and
// replay bitwise from the tape.

TEST(PropGenerators, WtaConfigsAreConstructibleAndReplayable) {
  for (std::uint64_t k = 0; k < 25; ++k) {
    Source s = prop::case_source("gen_wta", 11, k);
    const WtaConfig config = prop::gen_wta_config(s, "cpu");
    EXPECT_GE(config.neuron_count, 2u);
    EXPECT_LE(config.neuron_count, 14u);
    EXPECT_GT(config.init_g_hi, config.init_g_lo);
    // Tape replay regenerates the identical config.
    Source replay(s.tape());
    const WtaConfig again = prop::gen_wta_config(replay, "cpu");
    EXPECT_EQ(config.neuron_count, again.neuron_count);
    EXPECT_EQ(config.input_channels, again.input_channels);
    EXPECT_EQ(config.seed, again.seed);
    EXPECT_EQ(config.spike_amplitude, again.spike_amplitude);  // bitwise
    // The config builds a working updater.
    const StdpUpdater updater(config.stdp);
    EXPECT_GT(updater.effective_g_max(), 0.0);
  }
}

TEST(PropGenerators, QFormatsAreValidAndSpanTable2) {
  bool saw_q0_2 = false;
  bool saw_q1_15 = false;
  for (std::uint64_t k = 0; k < 60; ++k) {
    Source s = prop::case_source("gen_qformat", 5, k);
    const QFormat format = prop::gen_qformat(s);
    EXPECT_GE(format.fraction_bits(), 1);
    EXPECT_LE(format.total_bits(), 31);
    if (format == q0_2()) saw_q0_2 = true;
    if (format == q1_15()) saw_q1_15 = true;
  }
  EXPECT_TRUE(saw_q0_2);
  EXPECT_TRUE(saw_q1_15);
}

TEST(PropGenerators, LayersSpecsParseAndFaultSpecsArm) {
  const CheckResult specs = prop::check(
      "valid_layers_specs_parse",
      [](Source& s) {
        const std::string spec = prop::gen_layers_spec(s);
        const WtaConfig base = WtaConfig::from_table1(
            LearningOption::kFloat32, StdpKind::kStochastic, 10);
        const graph::GraphConfig config =
            graph::graph_config_from_spec(spec, base);
        PSS_PROP_ASSERT(!config.layers.empty(), "parsed spec has layers");
      },
      quiet_options(80));
  EXPECT_TRUE(specs.ok()) << specs.report();

  const CheckResult faults = prop::check(
      "valid_fault_specs_arm",
      [](Source& s) {
        robust::FaultInjector injector;
        injector.arm_from_spec(prop::gen_fault_spec(s));
        PSS_PROP_ASSERT(!injector.armed_points().empty(),
                        "spec armed at least one point");
      },
      quiet_options(80));
  EXPECT_TRUE(faults.ok()) << faults.report();
}

// ---------------------------------------------------------------------------
// Detection drill 1 (acceptance criterion): a deliberately broken STDP
// bound is caught, with a repro recipe that replays deterministically.

TEST(PropDetection, BrokenStdpBoundIsCaughtWithReproducibleRepro) {
  // The sabotaged updater step: correct result, then an overshoot added on
  // potentiations — modelling a bound bug a hot-path rewrite could
  // introduce. The property asserts G ∈ [g_min, effective_g_max].
  const auto property = [](Source& s) {
    const StdpUpdaterConfig config = prop::gen_stdp_config(s);
    const StdpUpdater updater(config);
    const double g =
        s.real(config.magnitude.g_min, updater.effective_g_max());
    const double gap = s.real(0.0, 3.0 * config.det_window_ms);
    double next = updater.update_at_post_spike(g, gap, s.unit(), s.unit(),
                                               s.unit());
    if (next > g) next += 0.25;  // the deliberate bound break
    PSS_PROP_ASSERT(next >= config.magnitude.g_min &&
                        next <= updater.effective_g_max() + 1e-12,
                    "conductance escaped [G_min, G_max]");
  };
  const CheckResult r =
      prop::check("sabotaged_stdp_bound", property, quiet_options(300));
  ASSERT_TRUE(r.failed) << "harness failed to catch the broken bound";
  ASSERT_FALSE(r.repro().empty());
  // The printed single-line recipe, as the acceptance criterion requires:
  std::printf("caught broken STDP bound; repro: %s\n", r.repro().c_str());
  EXPECT_NE(r.repro().find("PSS_PROP_SEED="), std::string::npos);

  // Deterministic reproduction from the recipe alone.
  const CheckResult replay =
      prop::run_case("sabotaged_stdp_bound", property, r.seed,
                     r.failing_case);
  ASSERT_TRUE(replay.failed);
  EXPECT_EQ(replay.message, r.message);
  EXPECT_EQ(replay.shrunk_tape, r.shrunk_tape);
}

// ---------------------------------------------------------------------------
// Detection drill 2 (acceptance criterion): a one-ULP divergence between the
// cpu conv kernel and the test-only gather oracle is caught by the
// differential property.

TEST(PropDetection, OneUlpBackendDivergenceIsCaughtWithReproducibleRepro) {
  const auto property = [](Source& s) {
    // Small generated conv workload, run on the oracle and on cpu.
    const std::size_t kernel = s.range(2, 3);
    const std::size_t in_h = s.range(kernel, 6);
    const std::size_t in_w = s.range(kernel, 6);
    const std::size_t filters = s.range(1, 3);
    const std::size_t out_h = in_h - kernel + 1;
    const std::size_t out_w = in_w - kernel + 1;
    std::vector<double> filter_taps(filters * kernel * kernel);
    for (double& w : filter_taps) w = s.real(-1.0, 1.0);
    std::vector<ChannelIndex> active;
    for (std::size_t u = 0; u < in_h * in_w; ++u) {
      if (s.boolean(0.4)) active.push_back(static_cast<ChannelIndex>(u));
    }
    const double amplitude = s.real(0.5, 3.0);

    std::vector<double> reference(filters * out_h * out_w, 0.0);
    std::vector<double> cpu(reference);
    std::vector<double> accumulator(reference.size());
    ConvAccumulateArgs args;
    args.filters = filter_taps;
    args.filter_count = filters;
    args.in_channels = 1;
    args.kernel = kernel;
    args.stride = 1;
    args.in_width = in_w;
    args.in_height = in_h;
    args.out_width = out_w;
    args.out_height = out_h;
    args.active_pre = active;
    args.amplitude = amplitude;
    args.decay_factor = 0.0;
    args.currents = reference;
    test::conv_gather_oracle(args);
    Engine engine(1);
    args.currents = cpu;
    args.accumulator = accumulator;
    make_backend("cpu")->kernels().conv_accumulate(engine, args);
    // The deliberate divergence: nudge one cpu output by one ULP.
    if (!cpu.empty() && cpu[0] != 0.0) {
      cpu[0] = std::nextafter(cpu[0], 1e308);
    }
    PSS_PROP_ASSERT(
        std::memcmp(reference.data(), cpu.data(),
                    reference.size() * sizeof(double)) == 0,
        "conv_accumulate diverged between the gather oracle and cpu");
  };
  const CheckResult r = prop::check("sabotaged_conv_divergence", property,
                                    quiet_options(150));
  ASSERT_TRUE(r.failed) << "harness failed to catch the one-ULP divergence";
  std::printf("caught one-ULP backend divergence; repro: %s\n",
              r.repro().c_str());
  EXPECT_NE(r.repro().find("PSS_PROP_CASE="), std::string::npos);

  const CheckResult replay = prop::run_case("sabotaged_conv_divergence",
                                            property, r.seed,
                                            r.failing_case);
  ASSERT_TRUE(replay.failed);
  EXPECT_EQ(replay.message, r.message);
  EXPECT_EQ(replay.failing_tape, r.failing_tape);
}

}  // namespace
}  // namespace pss
