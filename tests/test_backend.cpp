// Compute-backend layer tests (see src/pss/backend/):
//  * registry behavior — names, availability, unknown-name and cuda-stub
//    error messages;
//  * CounterRng::uniform_many — bitwise-identical to per-call uniform();
//  * cpu backend — bitwise-equivalent kernel results at every worker count
//    (tolerance 0: the cpu table IS the pre-backend code, moved verbatim);
//  * cpu vs cpu_simd — stdp.row bitwise-identical; the fused step matches
//    within a documented ULP bound (the SIMD row gather reassociates the
//    conductance sum into four accumulators, so the per-neuron current may
//    differ by a few ULP, never more — see kernels_simd.cpp);
//  * StatePool — row bounds, clamped bulk load, size validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pss/backend/backend.hpp"
#include "pss/backend/kernels.hpp"
#include "pss/backend/state_pool.hpp"
#include "pss/common/error.hpp"
#include "pss/common/rng.hpp"
#include "pss/network/wta_network.hpp"

namespace pss {
namespace {

TEST(BackendRegistry, ListsCpuBackendsAndCudaStub) {
  const auto names = backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "cpu"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "cpu_simd"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "cpu_sparse"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "cuda"), names.end());
  EXPECT_TRUE(backend_available("cpu"));
  EXPECT_TRUE(backend_available("cpu_simd"));
  EXPECT_TRUE(backend_available("cpu_sparse"));
  EXPECT_FALSE(backend_available("cuda"));
  EXPECT_FALSE(backend_available("tpu"));
}

TEST(BackendRegistry, UnknownNameListsValidNames) {
  try {
    make_backend("gpu3000");
    FAIL() << "expected pss::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown backend"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cpu_simd"), std::string::npos) << msg;
  }
}

TEST(BackendRegistry, CudaStubExplainsTheGate) {
  try {
    make_backend("cuda");
    FAIL() << "expected pss::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("PSS_ENABLE_CUDA"), std::string::npos) << msg;
    EXPECT_NE(msg.find("backend=cpu"), std::string::npos) << msg;
  }
}

TEST(BackendRegistry, NetworkConfigRejectsUnknownBackend) {
  WtaConfig cfg = WtaConfig::from_table1(LearningOption::kFloat32,
                                         StdpKind::kStochastic, 4);
  cfg.backend = "bogus";
  EXPECT_THROW(WtaNetwork net(cfg), Error);
}

TEST(BackendRegistry, DefaultBackendIsCpu) {
  EXPECT_STREQ(default_backend().name(), "cpu");
}

TEST(BackendBuffers, AllocZeroFillsAndCopiesRoundTrip) {
  auto backend = make_backend("cpu");
  auto* p = static_cast<double*>(backend->alloc_bytes(16 * sizeof(double)));
  ASSERT_NE(p, nullptr);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(p[i], 0.0);
  std::vector<double> host(16);
  for (int i = 0; i < 16; ++i) host[i] = 0.5 * i;
  backend->copy_to_device(p, host.data(), 16 * sizeof(double));
  std::vector<double> back(16, -1.0);
  backend->copy_to_host(back.data(), p, 16 * sizeof(double));
  EXPECT_EQ(back, host);
  backend->synchronize();  // no-op on CPU, must not block or throw
  backend->free_bytes(p, 16 * sizeof(double));
}

TEST(CounterRngBulk, UniformManyIsBitwiseIdenticalToPerCallDraws) {
  const CounterRng rng(0xfeedULL, 42);
  // Sizes straddle the 8-lane block width (tail handling) and counter bases
  // exercise the carry into the high word.
  for (std::uint64_t base : {0ull, 1ull, 1ull << 32, 0xffffffffull - 3}) {
    for (std::size_t n : {1u, 7u, 8u, 9u, 65u, 1000u}) {
      std::vector<double> bulk(n);
      rng.uniform_many(base, bulk);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bulk[i], rng.uniform(base + i))
            << "base=" << base << " i=" << i;
      }
    }
  }
}

// --- cross-backend kernel equivalence --------------------------------------

struct KernelRig {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Backend> backend;
  std::unique_ptr<StatePool> pool;
  std::vector<ChannelIndex> active;

  Engine& eng() { return *engine; }

  KernelRig(const std::string& name, std::size_t workers, std::size_t neurons,
            std::size_t channels) {
    engine = std::make_unique<Engine>(workers);
    backend = make_backend(name, engine.get());
    pool = std::make_unique<StatePool>(backend.get(),
                                       StatePool::Geometry{neurons, channels});
    pool->set_g_bounds(0.0, 1.0);
    // Deterministic, irregular state so every kernel branch is exercised.
    SequentialRng init(7);
    for (auto& g : pool->g()) g = init.uniform();
    auto v = pool->membrane();
    auto u = pool->recovery();
    auto currents = pool->currents();
    auto last = pool->last_spike();
    auto inhibited = pool->inhibited_until();
    for (std::size_t i = 0; i < neurons; ++i) {
      v[i] = -65.0 + 15.0 * init.uniform();
      u[i] = -14.0 + init.uniform();
      currents[i] = 4.0 * init.uniform();
      last[i] = (i % 5 == 0) ? kNeverSpiked : 0.25 * static_cast<double>(i);
      inhibited[i] = (i % 7 == 0) ? 1e9 : -1.0;  // a few permanently inhibited
    }
    auto last_pre = pool->last_pre_spike();
    for (std::size_t c = 0; c < channels; ++c) {
      last_pre[c] = (c % 3 == 0) ? kNeverSpiked : 0.1 * static_cast<double>(c);
    }
    for (std::size_t c = 0; c < channels; c += 9) active.push_back(static_cast<ChannelIndex>(c));
  }

  LifFusedStepArgs lif_fused_args(TimeMs now) {
    LifFusedStepArgs args;
    args.params = paper_lif_parameters();
    args.step.state = NeuronStateView{pool->membrane(), pool->recovery(),
                                      pool->last_spike(),
                                      pool->inhibited_until(), pool->spiked()};
    args.step.currents = pool->currents();
    args.step.decay_factor = 0.8;
    args.step.conductance = std::as_const(*pool).g();
    args.step.pre_count = pool->channels();
    args.step.active_pre = active;
    args.step.amplitude = 3.0;
    args.step.now = now;
    args.step.dt = 0.5;
    return args;
  }

  StdpRowArgs stdp_args(const StdpUpdater& updater, const CounterRng& rng,
                        NeuronIndex post, TimeMs t_post) {
    StdpRowArgs args;
    args.updater = &updater;
    args.row = pool->g_row(post);
    args.last_pre_spike = std::as_const(*pool).last_pre_spike();
    args.t_post = t_post;
    args.rng = &rng;
    args.counter_base = 17;
    return args;
  }
};

/// The cpu table is the pre-backend code moved verbatim: results must be
/// bitwise-identical at every worker count (tolerance 0).
TEST(BackendEquivalence, CpuKernelsAreWorkerCountInvariant) {
  constexpr std::size_t kNeurons = 300;
  constexpr std::size_t kChannels = 784;
  KernelRig ref("cpu", 1, kNeurons, kChannels);
  const StdpUpdater updater{StdpUpdaterConfig{}};
  const CounterRng rng(11, 3);
  for (TimeMs t = 0.5; t < 5.0; t += 0.5) {
    ref.backend->kernels().lif_step_fused(ref.eng(),
                                          ref.lif_fused_args(t));
    ref.backend->kernels().stdp_row(ref.eng(),
                                    ref.stdp_args(updater, rng, 2, t));
  }
  for (std::size_t workers : {2u, 4u, 7u}) {
    KernelRig rig("cpu", workers, kNeurons, kChannels);
    for (TimeMs t = 0.5; t < 5.0; t += 0.5) {
      rig.backend->kernels().lif_step_fused(rig.eng(),
                                            rig.lif_fused_args(t));
      rig.backend->kernels().stdp_row(rig.eng(),
                                      rig.stdp_args(updater, rng, 2, t));
    }
    for (std::size_t i = 0; i < kNeurons; ++i) {
      ASSERT_EQ(rig.pool->membrane()[i], ref.pool->membrane()[i]) << i;
      ASSERT_EQ(rig.pool->currents()[i], ref.pool->currents()[i]) << i;
    }
    for (std::size_t s = 0; s < kNeurons * kChannels; ++s) {
      ASSERT_EQ(rig.pool->g()[s], ref.pool->g()[s]) << s;
    }
  }
}

/// stdp.row.simd consumes bitwise-identical draws (uniform_many) and its
/// gate shortcut only skips provably-unchanged synapses, so the SIMD row
/// update is exact — not approximately equal, EQUAL.
TEST(BackendEquivalence, SimdStdpRowIsBitwiseIdentical) {
  constexpr std::size_t kNeurons = 8;
  constexpr std::size_t kChannels = 784;
  const CounterRng rng(23, 5);
  for (StdpKind kind : {StdpKind::kStochastic, StdpKind::kDeterministic}) {
    for (DepressionMode dep :
         {DepressionMode::kStaleAtPost, DepressionMode::kPreSpikeEq7,
          DepressionMode::kBoth}) {
      StdpUpdaterConfig cfg;
      cfg.kind = kind;
      cfg.depression = dep;
      const StdpUpdater updater(cfg);
      KernelRig a("cpu", 3, kNeurons, kChannels);
      KernelRig b("cpu_simd", 3, kNeurons, kChannels);
      for (TimeMs t = 1.0; t < 40.0; t += 1.0) {
        a.backend->kernels().stdp_row(a.eng(),
                                      a.stdp_args(updater, rng, 1, t));
        b.backend->kernels().stdp_row(b.eng(),
                                      b.stdp_args(updater, rng, 1, t));
      }
      for (std::size_t s = 0; s < kNeurons * kChannels; ++s) {
        ASSERT_EQ(a.pool->g()[s], b.pool->g()[s])
            << "synapse " << s << " kind=" << static_cast<int>(kind)
            << " dep=" << static_cast<int>(dep);
      }
    }
  }
}

/// Distance in representable doubles — the natural metric for reassociated
/// floating-point sums.
std::int64_t ulp_distance(double a, double b) {
  if (a == b) return 0;
  std::int64_t ia, ib;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  if (ia < 0) ia = std::numeric_limits<std::int64_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int64_t>::min() - ib;
  return ia > ib ? ia - ib : ib - ia;
}

/// The SIMD fused step reassociates the per-row conductance gather into four
/// accumulators: |cpu − cpu_simd| on the accumulated current is bounded by
/// the reassociation error of an ~90-term double sum. 16 ULP is a generous
/// documented bound (measured: ≤ 4 on this rig); the membrane update then
/// runs in identical operation order on that current.
TEST(BackendEquivalence, SimdFusedStepMatchesWithinUlpBound) {
  constexpr std::int64_t kMaxUlp = 16;
  KernelRig a("cpu", 4, 500, 784);
  KernelRig b("cpu_simd", 4, 500, 784);
  // A single step: trajectories may diverge once a borderline spike flips
  // (documented in kernels_simd.cpp), so the per-kernel contract is checked
  // one launch at a time against identical input state.
  a.backend->kernels().lif_step_fused(a.eng(), a.lif_fused_args(0.5));
  b.backend->kernels().lif_step_fused(b.eng(), b.lif_fused_args(0.5));
  for (std::size_t i = 0; i < 500; ++i) {
    EXPECT_LE(ulp_distance(a.pool->currents()[i], b.pool->currents()[i]),
              kMaxUlp)
        << i;
    EXPECT_LE(ulp_distance(a.pool->membrane()[i], b.pool->membrane()[i]),
              kMaxUlp)
        << i;
  }
}

// --- StatePool contracts ----------------------------------------------------

TEST(StatePoolTest, RowAccessorChecksBounds) {
  StatePool pool(&default_backend(), StatePool::Geometry{4, 6});
  pool.set_g_bounds(0.0, 1.0);
  EXPECT_EQ(pool.g_row(3).size(), 6u);
  EXPECT_THROW(pool.g_row(4), Error);
}

TEST(StatePoolTest, BulkLoadValidatesSizeAndClamps) {
  StatePool pool(&default_backend(), StatePool::Geometry{2, 3});
  pool.set_g_bounds(0.2, 0.8);
  EXPECT_THROW(pool.load_g(std::vector<double>(5, 0.5), true), Error);
  const std::vector<double> values = {-1.0, 0.5, 2.0, 0.2, 0.8, 0.25};
  pool.load_g(values, /*clamp=*/true);
  const std::vector<double> expect = {0.2, 0.5, 0.8, 0.2, 0.8, 0.25};
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(pool.g()[i], expect[i]) << i;
  }
}

TEST(StatePoolTest, RejectsEmptyGeometryAndInvertedBounds) {
  EXPECT_THROW(StatePool(&default_backend(), StatePool::Geometry{0, 3}),
               Error);
  StatePool pool(&default_backend(), StatePool::Geometry{1, 1});
  EXPECT_THROW(pool.set_g_bounds(1.0, 1.0), Error);
}

// --- sparse event backend ---------------------------------------------------

/// The event-path kernel slots are what WtaNetwork probes to pick the sparse
/// loop: all four present on cpu_sparse, all four absent on the dense tables
/// (dense backends need no stubs — the probe is the feature flag).
TEST(SparseBackend, EventKernelSlotsGateTheSparsePath) {
  auto sparse = make_backend("cpu_sparse");
  EXPECT_NE(sparse->kernels().poisson_encode_events, nullptr);
  EXPECT_NE(sparse->kernels().regular_encode_events, nullptr);
  EXPECT_NE(sparse->kernels().sparse_accumulate, nullptr);
  EXPECT_NE(sparse->kernels().stdp_flush, nullptr);
  // The dense slots stay populated — the sparse table is an overlay, and
  // readout still uses the dense fused step.
  EXPECT_NE(sparse->kernels().lif_step_fused, nullptr);
  for (const char* dense : {"cpu", "cpu_simd"}) {
    auto backend = make_backend(dense);
    EXPECT_EQ(backend->kernels().poisson_encode_events, nullptr) << dense;
    EXPECT_EQ(backend->kernels().regular_encode_events, nullptr) << dense;
    EXPECT_EQ(backend->kernels().sparse_accumulate, nullptr) << dense;
    EXPECT_EQ(backend->kernels().stdp_flush, nullptr) << dense;
  }
}

/// Whole-network worker-count invariance on the sparse path: event building,
/// CSR accumulation, and the lazy-STDP flush all use counter-indexed draws
/// and worker-independent partitioning, so the trained conductance matrix is
/// bitwise-identical at every worker count.
TEST(SparseBackend, NetworkIsWorkerCountInvariant) {
  auto run = [](std::size_t workers) {
    WtaConfig cfg = WtaConfig::from_table1(LearningOption::kFloat32,
                                           StdpKind::kStochastic, 12);
    cfg.backend = "cpu_sparse";
    cfg.seed = 7;
    Engine engine(workers);
    WtaNetwork net(cfg, &engine);
    std::vector<double> rates(cfg.input_channels);
    for (std::size_t c = 0; c < rates.size(); ++c) {
      rates[c] = (c % 7 == 0) ? 22.0 : 2.0;
    }
    for (int i = 0; i < 6; ++i) {
      net.present(rates, 150.0, /*learn=*/true);
    }
    return net.conductance().to_vector();
  };
  const auto ref = run(1);
  for (std::size_t workers : {4u, 7u}) {
    const auto got = run(workers);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(got[i], ref[i]) << "synapse " << i << " workers=" << workers;
    }
  }
}

/// cpu vs cpu_sparse is a *statistical* equivalence, not a bitwise one: the
/// event-list Poisson encoder indexes its draws per spike interval (geometric
/// sampling) while the dense path draws per step, so the trains are
/// distributionally equal but not identical. Train both on the same input
/// statistics and require the learned populations to agree in the aggregate.
TEST(SparseBackend, MatchesDenseBackendStatistically) {
  auto train = [](const std::string& backend) {
    WtaConfig cfg = WtaConfig::from_table1(LearningOption::kFloat32,
                                           StdpKind::kStochastic, 15);
    cfg.backend = backend;
    cfg.seed = 19;
    WtaNetwork net(cfg);
    std::vector<double> rates(cfg.input_channels);
    for (std::size_t c = 0; c < rates.size(); ++c) {
      rates[c] = (c % 5 < 2) ? 20.0 : 2.0;
    }
    // Long enough for homeostasis to settle both populations onto its
    // firing-rate target; early spike counts are WTA-chaotic.
    for (int i = 0; i < 30; ++i) {
      net.present(rates, 200.0, /*learn=*/true);
    }
    double mean = 0.0;
    const auto g = net.conductance().to_vector();
    for (const double v : g) mean += v;
    mean /= static_cast<double>(g.size());
    return std::pair<double, std::uint64_t>{mean, net.total_spikes()};
  };
  const auto [dense_mean, dense_spikes] = train("cpu");
  const auto [sparse_mean, sparse_spikes] = train("cpu_sparse");
  ASSERT_GT(dense_spikes, 0u);
  ASSERT_GT(sparse_spikes, 0u);
  // Same drive statistics → comparable activity and learned mass.
  EXPECT_LT(sparse_spikes, dense_spikes * 3);
  EXPECT_LT(dense_spikes, sparse_spikes * 3);
  EXPECT_NEAR(sparse_mean, dense_mean, 0.15)
      << "dense=" << dense_mean << " sparse=" << sparse_mean;
}

// --- layer-graph kernels: conv_accumulate / pool_forward --------------------
//
// Both kernels promise bitwise-identical results on every backend and worker
// count (kernels.hpp): conv taps accumulate in ascending active order, pool
// is pure flag work. Run one geometry across {cpu, cpu_simd, cpu_sparse} ×
// worker counts and assert exact equality against the cpu/1-worker result.
// Grain 0 makes every launch dispatch to the pool: the geometries are far
// below Engine::kDefaultGrain and would otherwise run inline.

struct ConvGeometry {
  static constexpr std::size_t kFilters = 3;
  static constexpr std::size_t kChannels = 2;
  static constexpr std::size_t kKernel = 3;
  static constexpr std::size_t kStride = 2;
  static constexpr std::size_t kInW = 12;
  static constexpr std::size_t kInH = 10;
  static constexpr std::size_t kOutW = (kInW - kKernel) / kStride + 1;
  static constexpr std::size_t kOutH = (kInH - kKernel) / kStride + 1;

  std::vector<double> filters;
  std::vector<ChannelIndex> active;

  ConvGeometry() {
    filters.resize(kFilters * kChannels * kKernel * kKernel);
    for (std::size_t i = 0; i < filters.size(); ++i) {
      // Irregular signed taps; exact in double so accumulation order is the
      // only possible source of divergence.
      filters[i] = static_cast<double>((i * 37 % 23)) / 8.0 - 1.25;
    }
    for (std::size_t p = 0; p < kChannels * kInH * kInW; p += 7) {
      active.push_back(static_cast<ChannelIndex>(p));
    }
  }

  /// Two accumulate steps (clear, then decay 0.5) on `name`/`workers`.
  std::vector<double> run(const std::string& name, std::size_t workers) const {
    Engine engine(workers);
    engine.set_grain(0);
    auto backend = make_backend(name);
    std::vector<double> currents(kFilters * kOutH * kOutW, 0.0);
    std::vector<double> accumulator(currents.size());
    ConvAccumulateArgs args;
    args.filters = filters;
    args.filter_count = kFilters;
    args.in_channels = kChannels;
    args.kernel = kKernel;
    args.stride = kStride;
    args.in_width = kInW;
    args.in_height = kInH;
    args.out_width = kOutW;
    args.out_height = kOutH;
    args.active_pre = active;
    args.amplitude = 0.8;
    args.decay_factor = 0.0;
    args.currents = currents;
    args.accumulator = accumulator;
    backend->kernels().conv_accumulate(engine, args);
    args.decay_factor = 0.5;
    backend->kernels().conv_accumulate(engine, args);
    return currents;
  }
};

TEST(GraphKernels, ConvAccumulateIsBitwiseEqualAcrossBackendsAndWorkers) {
  const ConvGeometry geo;
  const std::vector<double> want = geo.run("cpu", 1);
  // Sanity: the active list actually drove currents somewhere.
  EXPECT_NE(*std::max_element(want.begin(), want.end()), 0.0);
  for (const std::string& name : {std::string("cpu"), std::string("cpu_simd"),
                                  std::string("cpu_sparse")}) {
    for (std::size_t workers : {1u, 3u, 4u}) {
      const std::vector<double> got = geo.run(name, workers);
      ASSERT_EQ(got, want) << name << " workers=" << workers;
    }
  }
}

TEST(GraphKernels, PoolForwardIsIdenticalAcrossBackendsAndWorkers) {
  constexpr std::size_t kChannels = 3, kInW = 7, kInH = 5, kWindow = 2;
  constexpr std::size_t kOutW = (kInW + kWindow - 1) / kWindow;
  constexpr std::size_t kOutH = (kInH + kWindow - 1) / kWindow;
  std::vector<ChannelIndex> fired;
  for (std::size_t i = 0; i < kChannels * kInH * kInW; ++i) {
    if ((i * 5 + 1) % 3 == 0) fired.push_back(static_cast<ChannelIndex>(i));
  }

  auto run = [&](const std::string& name, std::size_t workers) {
    Engine engine(workers);
    engine.set_grain(0);
    auto backend = make_backend(name);
    std::vector<std::uint8_t> pooled(kChannels * kOutH * kOutW, 0);
    std::vector<std::uint32_t> counts(pooled.size(), 0);
    PoolForwardArgs args;
    args.fired = fired;
    args.in_width = kInW;
    args.in_height = kInH;
    args.window = kWindow;
    args.out_width = kOutW;
    args.out_height = kOutH;
    args.pooled = pooled;
    args.pooled_counts = counts;
    backend->kernels().pool_forward(engine, args);  // step 1
    backend->kernels().pool_forward(engine, args);  // step 2 (counts += 1)
    return std::pair(pooled, counts);
  };

  const auto want = run("cpu", 1);
  for (std::size_t i = 0; i < want.first.size(); ++i) {
    // Counts accumulate per step: two identical steps double every flag.
    EXPECT_EQ(want.second[i], want.first[i] * 2u) << i;
  }
  for (const std::string& name : {std::string("cpu"), std::string("cpu_simd"),
                                  std::string("cpu_sparse")}) {
    for (std::size_t workers : {1u, 4u}) {
      const auto got = run(name, workers);
      ASSERT_EQ(got.first, want.first) << name << " workers=" << workers;
      ASSERT_EQ(got.second, want.second) << name << " workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace pss
