// Test-only oracles for the two event-driven layer-graph kernels: the dense
// per-unit forms that conv_accumulate and pool_forward must match exactly.
//
//  * conv_gather_oracle — one unit at a time, scanning the whole active list
//    in ascending order against the unit's window. The scatter kernel must
//    reproduce this per-unit association bit for bit.
//  * pool_or_oracle — OR-reduces every window of a dense spike-flag plane
//    (edge windows clip); counts rise once per fired window.
//
// Shared by the differential suite and the harness's detection drill.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "pss/backend/kernels.hpp"

namespace pss::test {

/// Writes a.currents from a.currents, ignoring a.accumulator.
inline void conv_gather_oracle(const ConvAccumulateArgs& a) {
  const std::size_t in_plane = a.in_width * a.in_height;
  const std::size_t out_plane = a.out_width * a.out_height;
  const std::size_t taps = a.in_channels * a.kernel * a.kernel;
  for (std::size_t u = 0; u < a.filter_count * out_plane; ++u) {
    const std::size_t f = u / out_plane;
    const std::size_t rem = u % out_plane;
    const std::size_t y0 = (rem / a.out_width) * a.stride;
    const std::size_t x0 = (rem % a.out_width) * a.stride;
    const double* w = a.filters.data() + f * taps;
    double acc = 0.0;
    for (const ChannelIndex p : a.active_pre) {
      const std::size_t c = p / in_plane;
      const std::size_t q = p % in_plane;
      const std::size_t y = q / a.in_width;
      const std::size_t x = q % a.in_width;
      if (y < y0 || y >= y0 + a.kernel || x < x0 || x >= x0 + a.kernel) {
        continue;
      }
      acc += w[(c * a.kernel + (y - y0)) * a.kernel + (x - x0)];
    }
    a.currents[u] = a.currents[u] * a.decay_factor + a.amplitude * acc;
  }
}

/// Reads the dense flag plane `spiked` (c, y, x) instead of a.fired.
inline void pool_or_oracle(std::span<const std::uint8_t> spiked,
                           const PoolForwardArgs& a) {
  const std::size_t out_plane = a.out_width * a.out_height;
  for (std::size_t u = 0; u < a.pooled.size(); ++u) {
    const std::size_t c = u / out_plane;
    const std::size_t rem = u % out_plane;
    const std::size_t y0 = (rem / a.out_width) * a.window;
    const std::size_t x0 = (rem % a.out_width) * a.window;
    const std::size_t y1 = std::min(y0 + a.window, a.in_height);
    const std::size_t x1 = std::min(x0 + a.window, a.in_width);
    std::uint8_t any = 0;
    for (std::size_t y = y0; y < y1; ++y) {
      for (std::size_t x = x0; x < x1; ++x) {
        any |= spiked[(c * a.in_height + y) * a.in_width + x];
      }
    }
    a.pooled[u] = any ? 1 : 0;
    if (!a.pooled_counts.empty() && any) ++a.pooled_counts[u];
  }
}

}  // namespace pss::test
