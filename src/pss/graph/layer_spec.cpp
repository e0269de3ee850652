#include "pss/graph/layer_spec.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "pss/common/error.hpp"
#include "pss/common/suggest.hpp"

namespace pss::graph {

const char* layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::kEncode: return "encode";
    case LayerKind::kConv: return "conv";
    case LayerKind::kPool: return "pool";
    case LayerKind::kWta: return "wta";
    case LayerKind::kReadout: return "readout";
  }
  return "?";
}

LayerShape GraphConfig::encoded_input() const {
  LayerShape shape = input;
  if (encode.temporal_diff) shape.channels *= 2;
  return shape;
}

bool GraphConfig::single_wta() const {
  return layers.size() == 1 && layers[0].kind == LayerKind::kWta;
}

namespace {

/// Strict numeric parsing: the whole token must be consumed (the config
/// parser's no-trailing-garbage policy, applied to spec values too).
std::size_t parse_size(const std::string& where, const std::string& value) {
  PSS_REQUIRE(!value.empty(), "layers spec: empty value for " + where);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  PSS_REQUIRE(end == value.c_str() + value.size() && value[0] != '-',
              "layers spec: bad integer '" + value + "' for " + where);
  // strtoull clamps overflow to ULLONG_MAX instead of failing; a spec like
  // neurons=18446744073709551616 must be an error, not a silent clamp.
  PSS_REQUIRE(errno != ERANGE,
              "layers spec: integer '" + value + "' for " + where +
                  " is out of range");
  return static_cast<std::size_t>(v);
}

double parse_real(const std::string& where, const std::string& value) {
  PSS_REQUIRE(!value.empty(), "layers spec: empty value for " + where);
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  PSS_REQUIRE(end == value.c_str() + value.size(),
              "layers spec: bad number '" + value + "' for " + where);
  // strtod accepts "inf"/"nan" and overflows to ±inf; every real-valued key
  // in the grammar means a finite quantity, so reject non-finite here once
  // rather than per-key (conv.gain had no range check at all).
  PSS_REQUIRE(std::isfinite(v),
              "layers spec: number '" + value + "' for " + where +
                  " must be finite");
  return v;
}

bool parse_bool(const std::string& where, const std::string& value) {
  if (value == "1" || value == "on" || value == "true") return true;
  if (value == "0" || value == "off" || value == "false") return false;
  throw Error("layers spec: bad flag '" + value + "' for " + where +
              " (want 0|1)");
}

/// Shortest roundtrip-exact formatting for canonical specs.
std::string format_real(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Prefer the shortest representation that roundtrips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[64];
    std::snprintf(probe, sizeof probe, "%.*g", prec, v);
    if (std::strtod(probe, nullptr) == v) return probe;
  }
  return buf;
}

struct KeyValue {
  std::string key;
  std::string value;
};

/// One `kind:key=value,...` segment split into parts.
struct Segment {
  std::string kind;
  std::vector<KeyValue> options;
};

std::vector<Segment> split_segments(const std::string& spec) {
  std::vector<Segment> segments;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t semi = spec.find(';', pos);
    if (semi == std::string::npos) semi = spec.size();
    const std::string part = spec.substr(pos, semi - pos);
    pos = semi + 1;
    PSS_REQUIRE(!part.empty(), "layers spec: empty layer segment");
    Segment seg;
    const std::size_t colon = part.find(':');
    seg.kind = part.substr(0, colon);
    if (colon != std::string::npos) {
      std::size_t opt = colon + 1;
      while (opt <= part.size()) {
        std::size_t comma = part.find(',', opt);
        if (comma == std::string::npos) comma = part.size();
        const std::string kv = part.substr(opt, comma - opt);
        opt = comma + 1;
        PSS_REQUIRE(!kv.empty(),
                    "layers spec: empty option in '" + seg.kind + "' layer");
        const std::size_t eq = kv.find('=');
        PSS_REQUIRE(eq != std::string::npos && eq > 0,
                    "layers spec: option '" + kv + "' in '" + seg.kind +
                        "' layer is not key=value");
        seg.options.push_back({kv.substr(0, eq), kv.substr(eq + 1)});
      }
    }
    segments.push_back(std::move(seg));
    if (semi == spec.size()) break;
  }
  return segments;
}

[[noreturn]] void unknown_key(const std::string& kind, const std::string& key,
                              const std::vector<std::string>& known) {
  throw Error("layers spec: unknown key '" + key + "' in '" + kind +
              "' layer" + suggestion_for(key, known));
}

}  // namespace

GraphConfig graph_config_from_spec(const std::string& spec,
                                   const WtaConfig& base) {
  PSS_REQUIRE(!spec.empty(), "layers spec must not be empty");
  GraphConfig config;
  config.wta_base = base;
  config.readout.inhibition = base.readout_inhibition;
  config.readout.theta = base.readout_theta;

  static const std::vector<std::string> kKinds = {"encode", "conv", "pool",
                                                  "wta", "readout"};
  bool saw_wta = false;
  bool saw_readout = false;
  const std::vector<Segment> segments = split_segments(spec);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const Segment& seg = segments[i];
    PSS_REQUIRE(!saw_readout, "layers spec: 'readout' must be the last layer");
    if (seg.kind == "encode") {
      PSS_REQUIRE(i == 0, "layers spec: 'encode' must be the first layer");
      static const std::vector<std::string> keys = {"peak", "temporal"};
      for (const KeyValue& kv : seg.options) {
        if (kv.key == "peak") {
          config.encode.peak_hz = parse_real("encode.peak", kv.value);
          PSS_REQUIRE(config.encode.peak_hz > 0.0,
                      "layers spec: encode.peak must be > 0");
        } else if (kv.key == "temporal") {
          if (kv.value == "diff") {
            config.encode.temporal_diff = true;
          } else if (kv.value == "none") {
            config.encode.temporal_diff = false;
          } else {
            throw Error("layers spec: encode.temporal must be none|diff, got '" +
                        kv.value + "'");
          }
        } else {
          unknown_key(seg.kind, kv.key, keys);
        }
      }
    } else if (seg.kind == "conv") {
      PSS_REQUIRE(!saw_wta,
                  "layers spec: 'conv' must precede the WTA blocks");
      LayerSpec layer;
      layer.kind = LayerKind::kConv;
      static const std::vector<std::string> keys = {
          "filters", "kernel", "stride", "bank", "threshold", "gain",
          "decay_ms"};
      for (const KeyValue& kv : seg.options) {
        if (kv.key == "filters") {
          layer.conv.filters = parse_size("conv.filters", kv.value);
        } else if (kv.key == "kernel") {
          layer.conv.kernel = parse_size("conv.kernel", kv.value);
        } else if (kv.key == "stride") {
          layer.conv.stride = parse_size("conv.stride", kv.value);
        } else if (kv.key == "bank") {
          if (kv.value == "dog") {
            layer.conv.bank = FilterBank::kDog;
          } else if (kv.value == "gabor") {
            layer.conv.bank = FilterBank::kGabor;
          } else {
            throw Error("layers spec: conv.bank must be dog|gabor, got '" +
                        kv.value + "'" +
                        suggestion_for(kv.value, {"dog", "gabor"}));
          }
        } else if (kv.key == "threshold") {
          layer.conv.threshold = parse_real("conv.threshold", kv.value);
          PSS_REQUIRE(layer.conv.threshold > 0.0,
                      "layers spec: conv.threshold must be > 0");
        } else if (kv.key == "gain") {
          layer.conv.gain = parse_real("conv.gain", kv.value);
        } else if (kv.key == "decay_ms") {
          layer.conv.decay_ms = parse_real("conv.decay_ms", kv.value);
          PSS_REQUIRE(layer.conv.decay_ms >= 0.0,
                      "layers spec: conv.decay_ms must be >= 0");
        } else {
          unknown_key(seg.kind, kv.key, keys);
        }
      }
      PSS_REQUIRE(layer.conv.filters > 0 && layer.conv.kernel > 0 &&
                      layer.conv.stride > 0,
                  "layers spec: conv filters/kernel/stride must be > 0");
      config.layers.push_back(layer);
    } else if (seg.kind == "pool") {
      PSS_REQUIRE(!saw_wta,
                  "layers spec: 'pool' must precede the WTA blocks");
      LayerSpec layer;
      layer.kind = LayerKind::kPool;
      static const std::vector<std::string> keys = {"window"};
      for (const KeyValue& kv : seg.options) {
        if (kv.key == "window") {
          layer.pool.window = parse_size("pool.window", kv.value);
        } else {
          unknown_key(seg.kind, kv.key, keys);
        }
      }
      PSS_REQUIRE(layer.pool.window > 0,
                  "layers spec: pool.window must be > 0");
      config.layers.push_back(layer);
    } else if (seg.kind == "wta") {
      LayerSpec layer;
      layer.kind = LayerKind::kWta;
      static const std::vector<std::string> keys = {"neurons", "gain"};
      for (const KeyValue& kv : seg.options) {
        if (kv.key == "neurons") {
          layer.wta.neurons = parse_size("wta.neurons", kv.value);
          PSS_REQUIRE(layer.wta.neurons > 0,
                      "layers spec: wta.neurons must be > 0");
        } else if (kv.key == "gain") {
          layer.wta.gain = parse_real("wta.gain", kv.value);
          PSS_REQUIRE(layer.wta.gain > 0.0,
                      "layers spec: wta.gain must be > 0");
        } else {
          unknown_key(seg.kind, kv.key, keys);
        }
      }
      saw_wta = true;
      config.layers.push_back(layer);
    } else if (seg.kind == "readout") {
      saw_readout = true;
      static const std::vector<std::string> keys = {"inhibition", "theta"};
      for (const KeyValue& kv : seg.options) {
        if (kv.key == "inhibition") {
          config.readout.inhibition = parse_bool("readout.inhibition",
                                                 kv.value);
        } else if (kv.key == "theta") {
          config.readout.theta = parse_bool("readout.theta", kv.value);
        } else {
          unknown_key(seg.kind, kv.key, keys);
        }
      }
    } else {
      throw Error("layers spec: unknown layer kind '" + seg.kind + "'" +
                  suggestion_for(seg.kind, kKinds));
    }
  }
  PSS_REQUIRE(saw_wta, "layers spec: at least one 'wta' block is required");
  compute_shapes(config);  // geometry validation
  return config;
}

std::string canonical_layers_spec(const GraphConfig& config) {
  std::string spec = "encode:peak=" + format_real(config.encode.peak_hz) +
                     ",temporal=" +
                     (config.encode.temporal_diff ? "diff" : "none");
  for (const LayerSpec& layer : config.layers) {
    switch (layer.kind) {
      case LayerKind::kConv:
        spec += ";conv:filters=" + std::to_string(layer.conv.filters) +
                ",kernel=" + std::to_string(layer.conv.kernel) +
                ",stride=" + std::to_string(layer.conv.stride) + ",bank=" +
                (layer.conv.bank == FilterBank::kDog ? "dog" : "gabor") +
                ",threshold=" + format_real(layer.conv.threshold) +
                ",gain=" + format_real(layer.conv.gain) +
                ",decay_ms=" + format_real(layer.conv.decay_ms);
        break;
      case LayerKind::kPool:
        spec += ";pool:window=" + std::to_string(layer.pool.window);
        break;
      case LayerKind::kWta:
        spec += ";wta:neurons=" + std::to_string(layer.wta.neurons) +
                ",gain=" + format_real(layer.wta.gain);
        break;
      case LayerKind::kEncode:
      case LayerKind::kReadout:
        break;  // never stored in `layers`
    }
  }
  spec += ";readout:inhibition=";
  spec += config.readout.inhibition ? "1" : "0";
  spec += ",theta=";
  spec += config.readout.theta ? "1" : "0";
  return spec;
}

std::vector<LayerShape> compute_shapes(const GraphConfig& config) {
  std::vector<LayerShape> shapes;
  shapes.push_back(config.encoded_input());
  PSS_REQUIRE(shapes[0].units() > 0, "graph input shape must be non-empty");
  bool saw_wta = false;
  for (const LayerSpec& layer : config.layers) {
    const LayerShape in = shapes.back();
    switch (layer.kind) {
      case LayerKind::kConv: {
        PSS_REQUIRE(!saw_wta, "conv layers must precede the WTA blocks");
        PSS_REQUIRE(in.height >= layer.conv.kernel &&
                        in.width >= layer.conv.kernel,
                    "conv kernel does not fit the input plane");
        LayerShape out;
        out.channels = layer.conv.filters;
        out.height = (in.height - layer.conv.kernel) / layer.conv.stride + 1;
        out.width = (in.width - layer.conv.kernel) / layer.conv.stride + 1;
        shapes.push_back(out);
        break;
      }
      case LayerKind::kPool: {
        PSS_REQUIRE(!saw_wta, "pool layers must precede the WTA blocks");
        // Pooling downsamples a front-end layer's spike map; the encoded
        // input feeds conv or WTA layers directly.
        PSS_REQUIRE(shapes.size() > 1,
                    "a pool layer must follow a conv or pool layer");
        LayerShape out;
        out.channels = in.channels;
        out.height = (in.height + layer.pool.window - 1) / layer.pool.window;
        out.width = (in.width + layer.pool.window - 1) / layer.pool.window;
        shapes.push_back(out);
        break;
      }
      case LayerKind::kWta: {
        saw_wta = true;
        shapes.push_back(LayerShape{1, 1, layer.wta.neurons});
        break;
      }
      case LayerKind::kEncode:
      case LayerKind::kReadout:
        PSS_REQUIRE(false, "encode/readout are not stack layers");
    }
  }
  PSS_REQUIRE(saw_wta, "graph needs at least one WTA block");
  return shapes;
}

GraphConfig single_wta_graph(const WtaConfig& config) {
  GraphConfig graph;
  graph.input = LayerShape{1, 1, config.input_channels};
  graph.wta_base = config;
  graph.readout.inhibition = config.readout_inhibition;
  graph.readout.theta = config.readout_theta;
  LayerSpec layer;
  layer.kind = LayerKind::kWta;
  layer.wta.neurons = config.neuron_count;
  graph.layers.push_back(layer);
  return graph;
}

}  // namespace pss::graph
