#include "coverage/criterion.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "coverage/pool_sweep.h"
#include "quant/quant_model.h"
#include "tensor/batch.h"
#include "util/error.h"

namespace dnnv::cov {

// ---------------- CriterionConfig ----------------

void CriterionConfig::save(ByteWriter& writer) const {
  // The engine tag: 0, the absolute-sensitivity pass, is the only engine,
  // and the byte stays so saved manifests keep their layout.
  writer.write_u8(0);
  writer.write_f64(parameter.epsilon);
  writer.write_f64(neuron_threshold);
  writer.write_i64(sections);
  writer.write_i64(top_k);
  writer.write_u64(range_low.size());
  writer.write_f32_array(range_low.data(), range_low.size());
  writer.write_u64(range_high.size());
  writer.write_f32_array(range_high.data(), range_high.size());
}

CriterionConfig CriterionConfig::load(ByteReader& reader) {
  CriterionConfig config;
  const std::uint8_t engine = reader.read_u8();
  DNNV_CHECK(engine == 0, "coverage engine tag "
                              << static_cast<int>(engine)
                              << " is not supported: only 0, the "
                                 "absolute-sensitivity pass, loads (1 was the "
                                 "retired per-class exact engine)");
  config.parameter.epsilon = reader.read_f64();
  config.neuron_threshold = reader.read_f64();
  // Stored as i64 but held as int: a value outside int's range would
  // otherwise load truncated, i.e. as a different criterion.
  const auto read_int = [&reader](const char* which) {
    const std::int64_t value = reader.read_i64();
    DNNV_CHECK(value >= std::numeric_limits<int>::min() &&
                   value <= std::numeric_limits<int>::max(),
               "criterion config " << which << " " << value
                                   << " does not fit in an int");
    return static_cast<int>(value);
  };
  config.sections = read_int("sections");
  config.top_k = read_int("top_k");
  // Count fields sit early in a deliverable payload, so a wrong key decodes
  // them as garbage: bound them against the remaining bytes BEFORE the
  // array read, or a 2^62-scale count overflows the byte-level bounds check
  // and escapes as std::length_error instead of dnnv::Error.
  const auto read_range = [&reader](const char* which) {
    const std::uint64_t count = reader.read_u64();
    DNNV_CHECK(count <= reader.remaining() / sizeof(float),
               "criterion config " << which << " count " << count
                                   << " exceeds the remaining "
                                   << reader.remaining() << " bytes");
    return reader.read_f32_array(static_cast<std::size_t>(count));
  };
  config.range_low = read_range("range_low");
  config.range_high = read_range("range_high");
  return config;
}

// ---------------- Criterion base ----------------

void Criterion::measure(const Tensor& batch, std::vector<DynamicBitset>& masks) {
  DNNV_CHECK(batch.shape().ndim() >= 2, "expected a batched input");
  const std::size_t b = static_cast<std::size_t>(batch.shape()[0]);
  if (b == 0) {
    masks.clear();
    return;
  }
  measure_batch(batch, masks);
}

void Criterion::prepare_masks(std::vector<DynamicBitset>& masks,
                              std::size_t batch_size) const {
  const std::size_t points = total_points();
  masks.resize(batch_size);
  for (auto& mask : masks) mask.reset_to(points);
}

std::vector<DynamicBitset> Criterion::measure(const Tensor& batch) {
  std::vector<DynamicBitset> masks;
  measure(batch, masks);
  return masks;
}

std::vector<DynamicBitset> Criterion::measure_pool(
    const std::vector<Tensor>& pool) const {
  return detail::sweep_pool(
      pool, [this] { return clone(); },
      [](const std::unique_ptr<Criterion>& criterion, const Tensor& batch) {
        return criterion->measure(batch);
      });
}

std::size_t Criterion::observe(const Tensor& batch) {
  if (covered_.total_points() != total_points()) {
    covered_ = CoverageMap(total_points());
  }
  measure(batch, observe_masks_);
  const std::size_t before = covered_.covered_count();
  const std::size_t b = static_cast<std::size_t>(batch.shape()[0]);
  for (std::size_t i = 0; i < b; ++i) covered_.add(observe_masks_[i]);
  return covered_.covered_count() - before;
}

std::size_t Criterion::gain(const DynamicBitset& candidate) const {
  // Before the first observe the covered map is empty: everything is new.
  if (covered_.total_points() == 0) return candidate.count();
  return covered_.gain(candidate);
}

double Criterion::coverage() const {
  if (covered_.total_points() == 0) return 0.0;
  return covered_.fraction();
}

namespace {

// ---------------- binding helpers ----------------

/// The model a criterion measures: the int8 artifact's dequantized
/// reference when one is bound (the weights the IP executes), the float
/// master otherwise. Criteria own the returned clone.
nn::Sequential bind_model(const CriterionContext& ctx, const char* name) {
  if (ctx.qmodel != nullptr) return ctx.qmodel->dequantized_reference();
  DNNV_CHECK(ctx.model != nullptr,
             "'" << name << "' criterion needs ctx.model (or ctx.qmodel)");
  return ctx.model->clone();
}

const Shape& require_item_shape(const CriterionContext& ctx, const char* name) {
  DNNV_CHECK(ctx.item_shape.ndim() > 0,
             "'" << name << "' criterion needs ctx.item_shape");
  return ctx.item_shape;
}

// ---------------- "parameter" (paper Eq. 2/3) ----------------

class ParameterCriterion final : public Criterion {
 public:
  ParameterCriterion(const CriterionContext& ctx, const CriterionConfig& config)
      : model_(bind_model(ctx, "parameter")),
        config_(config),
        engine_(model_, config.parameter) {}

  std::string name() const override { return "parameter"; }

  std::string describe() const override {
    std::ostringstream os;
    os << "parameter-activation coverage (|grad| > "
       << config_.parameter.epsilon << ", abs-sensitivity engine) over "
       << total_points() << " parameters";
    return os.str();
  }

  CriterionConfig config() const override { return config_; }

  std::size_t total_points() const override {
    return static_cast<std::size_t>(engine_.param_count());
  }

  bool parameter_indexed() const override { return true; }

  std::unique_ptr<Criterion> clone() const override {
    return std::unique_ptr<Criterion>(new ParameterCriterion(model_, config_));
  }

 protected:
  void measure_batch(const Tensor& batch,
                     std::vector<DynamicBitset>& masks) override {
    engine_.activation_masks_batched(batch, masks);
  }

 private:
  ParameterCriterion(const nn::Sequential& model, const CriterionConfig& config)
      : model_(model.clone()), config_(config), engine_(model_, config.parameter) {}

  nn::Sequential model_;
  CriterionConfig config_;
  ParameterCoverage engine_;
};

// ---------------- "neuron" ([10]/[11] baseline) ----------------

class NeuronCriterion final : public Criterion {
 public:
  NeuronCriterion(const CriterionContext& ctx, const CriterionConfig& config)
      : NeuronCriterion(bind_model(ctx, "neuron"),
                        require_item_shape(ctx, "neuron"), config) {}

  std::string name() const override { return "neuron"; }

  std::string describe() const override {
    std::ostringstream os;
    os << "neuron coverage (activation > " << config_.neuron_threshold
       << ") over " << total_points() << " neurons";
    return os.str();
  }

  CriterionConfig config() const override { return config_; }

  std::size_t total_points() const override { return engine_.neuron_count(); }

  std::unique_ptr<Criterion> clone() const override {
    return std::unique_ptr<Criterion>(
        new NeuronCriterion(model_.clone(), item_shape_, config_));
  }

 protected:
  void measure_batch(const Tensor& batch,
                     std::vector<DynamicBitset>& masks) override {
    engine_.neuron_masks_batched(batch, masks);
  }

 private:
  NeuronCriterion(nn::Sequential model, const Shape& item_shape,
                  const CriterionConfig& config)
      : model_(std::move(model)),
        item_shape_(item_shape),
        config_(config),
        engine_(model_, item_shape,
                NeuronCoverageConfig{config.neuron_threshold}) {}

  nn::Sequential model_;
  Shape item_shape_;
  CriterionConfig config_;
  NeuronCoverage engine_;
};

// ---------------- neuron-value probing (shared by the new criteria) -------

/// Batch-native extraction of per-item neuron VALUES from one workspace
/// forward. The neuron definition (accounting + value semantics) lives in
/// neuron_coverage.h — neuron_spans / append_neuron_values — so every
/// neuron-family criterion shares one universe. The value buffer and
/// activation capture are reused across calls.
class NeuronProbe {
 public:
  NeuronProbe(nn::Sequential& model, const Shape& item_shape)
      : model_(model), spans_(neuron_spans(model, item_shape)) {
    for (const NeuronSpan& span : spans_) neuron_count_ += span.count;
  }

  std::size_t neuron_count() const { return neuron_count_; }
  const std::vector<NeuronSpan>& spans() const { return spans_; }

  /// Fills `values` row-major ([item][neuron], batch-size rows) and returns
  /// the batch size.
  std::int64_t values(const Tensor& batch, std::vector<double>& values) {
    activations_.clear();
    model_.forward_with_activations(batch, ws_, activations_);
    const std::int64_t b = batch.shape()[0];
    values.resize(static_cast<std::size_t>(b) * neuron_count_);
    for (std::int64_t item = 0; item < b; ++item) {
      double* row = values.data() +
                    static_cast<std::size_t>(item) * neuron_count_;
      std::size_t index = 0;
      for (const Tensor* act : activations_) {
        append_neuron_values(*act, item, row, index);
      }
    }
    return b;
  }

 private:
  nn::Sequential& model_;
  nn::Workspace ws_;
  std::vector<const Tensor*> activations_;  ///< capture scratch, reused
  std::vector<NeuronSpan> spans_;
  std::size_t neuron_count_ = 0;
};

/// Per-neuron [low, high] activation ranges over a calibration pool (the
/// DeepGauge "training-set profile"). Stored as floats widened outward so
/// a calibration value never falls outside its own range after rounding.
void calibrate_ranges(NeuronProbe& probe, const std::vector<Tensor>& pool,
                      const char* name, std::vector<float>& low,
                      std::vector<float>& high) {
  DNNV_CHECK(!pool.empty(), "'" << name
                                << "' criterion needs a non-empty "
                                   "calibration pool (ctx.calibration)");
  const std::size_t n = probe.neuron_count();
  std::vector<double> lo(n, std::numeric_limits<double>::infinity());
  std::vector<double> hi(n, -std::numeric_limits<double>::infinity());
  Tensor batch;
  std::vector<double> values;
  for (std::size_t begin = 0; begin < pool.size();
       begin += detail::kMaskBatch) {
    const std::size_t end =
        std::min(pool.size(), begin + detail::kMaskBatch);
    stack_batch_range(pool, begin, end, batch);
    const std::int64_t b = probe.values(batch, values);
    for (std::int64_t item = 0; item < b; ++item) {
      const double* row =
          values.data() + static_cast<std::size_t>(item) * n;
      for (std::size_t j = 0; j < n; ++j) {
        lo[j] = std::min(lo[j], row[j]);
        hi[j] = std::max(hi[j], row[j]);
      }
    }
  }
  low.resize(n);
  high.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    float lo_f = static_cast<float>(lo[j]);
    if (static_cast<double>(lo_f) > lo[j]) {
      lo_f = std::nextafterf(lo_f, -std::numeric_limits<float>::infinity());
    }
    float hi_f = static_cast<float>(hi[j]);
    if (static_cast<double>(hi_f) < hi[j]) {
      hi_f = std::nextafterf(hi_f, std::numeric_limits<float>::infinity());
    }
    low[j] = lo_f;
    high[j] = hi_f;
  }
}

/// Shared base of the range/value criteria: owns the bound model, the
/// probe, and the per-measure value buffer.
class NeuronValueCriterion : public Criterion {
 protected:
  NeuronValueCriterion(nn::Sequential model, const Shape& item_shape,
                       const CriterionConfig& config)
      : model_(std::move(model)),
        item_shape_(item_shape),
        config_(config),
        probe_(model_, item_shape) {}

  /// Takes config ranges as-is when materialised, calibrates them from
  /// `calibration` otherwise; always leaves one entry per probed neuron.
  void resolve_ranges(const char* name,
                      const std::vector<Tensor>* calibration) {
    if (config_.range_low.empty() && config_.range_high.empty()) {
      DNNV_CHECK(calibration != nullptr,
                 "'" << name
                     << "' criterion needs ctx.calibration (or ranges "
                        "materialised in the config)");
      calibrate_ranges(probe_, *calibration, name, config_.range_low,
                       config_.range_high);
    }
    DNNV_CHECK(config_.range_low.size() == probe_.neuron_count() &&
                   config_.range_high.size() == probe_.neuron_count(),
               "'" << name << "' range size " << config_.range_low.size()
                   << "/" << config_.range_high.size()
                   << " != neuron count " << probe_.neuron_count());
  }

  nn::Sequential model_;
  Shape item_shape_;
  CriterionConfig config_;
  NeuronProbe probe_;
  std::vector<double> values_;  ///< measure() scratch, reused
};

// ---------------- "ksection" (k-multisection, 1803.04792) ----------------

class KSectionCriterion final : public NeuronValueCriterion {
 public:
  KSectionCriterion(const CriterionContext& ctx, const CriterionConfig& config)
      : KSectionCriterion(bind_model(ctx, "ksection"),
                          require_item_shape(ctx, "ksection"), config,
                          ctx.calibration) {}

  std::string name() const override { return "ksection"; }

  std::string describe() const override {
    std::ostringstream os;
    os << "k-multisection neuron coverage (k = " << config_.sections
       << ", calibrated ranges) over " << probe_.neuron_count()
       << " neurons = " << total_points() << " sections";
    return os.str();
  }

  CriterionConfig config() const override { return config_; }

  std::size_t total_points() const override {
    return probe_.neuron_count() * static_cast<std::size_t>(config_.sections);
  }

  std::unique_ptr<Criterion> clone() const override {
    return std::unique_ptr<Criterion>(new KSectionCriterion(
        model_.clone(), item_shape_, config_, nullptr));
  }

 protected:
  void measure_batch(const Tensor& batch,
                     std::vector<DynamicBitset>& masks) override {
    const std::int64_t b = probe_.values(batch, values_);
    prepare_masks(masks, static_cast<std::size_t>(b));
    const std::size_t n = probe_.neuron_count();
    const std::size_t k = static_cast<std::size_t>(config_.sections);
    for (std::int64_t item = 0; item < b; ++item) {
      const double* row = values_.data() + static_cast<std::size_t>(item) * n;
      DynamicBitset& mask = masks[static_cast<std::size_t>(item)];
      for (std::size_t j = 0; j < n; ++j) {
        const double lo = static_cast<double>(config_.range_low[j]);
        const double hi = static_cast<double>(config_.range_high[j]);
        const double v = row[j];
        // Values outside the calibrated range belong to the corner cases
        // (the "boundary" criterion), not to any section.
        if (v < lo || v > hi) continue;
        std::size_t section = 0;
        if (hi > lo) {
          section = static_cast<std::size_t>((v - lo) / (hi - lo) *
                                             static_cast<double>(k));
          section = std::min(section, k - 1);  // v == hi lands in the top one
        }
        mask.set(j * k + section);
      }
    }
  }

 private:
  KSectionCriterion(nn::Sequential model, const Shape& item_shape,
                    const CriterionConfig& config,
                    const std::vector<Tensor>* calibration)
      : NeuronValueCriterion(std::move(model), item_shape, config) {
    DNNV_CHECK(config_.sections > 0, "'ksection' needs sections > 0");
    resolve_ranges("ksection", calibration);
  }
};

// ---------------- "boundary" (NBC / SNAC, 1803.04792) ----------------

class BoundaryCriterion final : public NeuronValueCriterion {
 public:
  BoundaryCriterion(const CriterionContext& ctx, const CriterionConfig& config)
      : BoundaryCriterion(bind_model(ctx, "boundary"),
                          require_item_shape(ctx, "boundary"), config,
                          ctx.calibration) {}

  std::string name() const override { return "boundary"; }

  std::string describe() const override {
    std::ostringstream os;
    os << "neuron boundary coverage (upper corner = SNAC, lower corner; "
          "calibrated ranges) over "
       << probe_.neuron_count() << " neurons = " << total_points()
       << " corners";
    return os.str();
  }

  CriterionConfig config() const override { return config_; }

  std::size_t total_points() const override {
    return 2 * probe_.neuron_count();
  }

  std::unique_ptr<Criterion> clone() const override {
    return std::unique_ptr<Criterion>(new BoundaryCriterion(
        model_.clone(), item_shape_, config_, nullptr));
  }

 protected:
  void measure_batch(const Tensor& batch,
                     std::vector<DynamicBitset>& masks) override {
    const std::int64_t b = probe_.values(batch, values_);
    prepare_masks(masks, static_cast<std::size_t>(b));
    const std::size_t n = probe_.neuron_count();
    for (std::int64_t item = 0; item < b; ++item) {
      const double* row = values_.data() + static_cast<std::size_t>(item) * n;
      DynamicBitset& mask = masks[static_cast<std::size_t>(item)];
      for (std::size_t j = 0; j < n; ++j) {
        // Bit 2j: activation above the calibrated high (strong-neuron-
        // activation corner); bit 2j+1: below the calibrated low.
        if (row[j] > static_cast<double>(config_.range_high[j])) {
          mask.set(2 * j);
        } else if (row[j] < static_cast<double>(config_.range_low[j])) {
          mask.set(2 * j + 1);
        }
      }
    }
  }

 private:
  BoundaryCriterion(nn::Sequential model, const Shape& item_shape,
                    const CriterionConfig& config,
                    const std::vector<Tensor>* calibration)
      : NeuronValueCriterion(std::move(model), item_shape, config) {
    resolve_ranges("boundary", calibration);
  }
};

// ---------------- "topk" (top-k neuron coverage) ----------------

class TopKCriterion final : public NeuronValueCriterion {
 public:
  TopKCriterion(const CriterionContext& ctx, const CriterionConfig& config)
      : TopKCriterion(bind_model(ctx, "topk"),
                      require_item_shape(ctx, "topk"), config) {}

  std::string name() const override { return "topk"; }

  std::string describe() const override {
    std::ostringstream os;
    os << "top-" << config_.top_k << " neuron coverage (per-layer "
       << "most-activated units) over " << total_points() << " neurons";
    return os.str();
  }

  CriterionConfig config() const override { return config_; }

  std::size_t total_points() const override { return probe_.neuron_count(); }

  std::unique_ptr<Criterion> clone() const override {
    return std::unique_ptr<Criterion>(
        new TopKCriterion(model_.clone(), item_shape_, config_));
  }

 protected:
  void measure_batch(const Tensor& batch,
                     std::vector<DynamicBitset>& masks) override {
    const std::int64_t b = probe_.values(batch, values_);
    prepare_masks(masks, static_cast<std::size_t>(b));
    const std::size_t n = probe_.neuron_count();
    const std::size_t k = static_cast<std::size_t>(config_.top_k);
    for (std::int64_t item = 0; item < b; ++item) {
      const double* row = values_.data() + static_cast<std::size_t>(item) * n;
      DynamicBitset& mask = masks[static_cast<std::size_t>(item)];
      for (const NeuronSpan& span : probe_.spans()) {
        const std::size_t take = std::min(k, span.count);
        order_.resize(span.count);
        for (std::size_t j = 0; j < span.count; ++j) order_[j] = j;
        // Deterministic: larger value first, ties to the lower index.
        std::partial_sort(order_.begin(), order_.begin() + take, order_.end(),
                          [&](std::size_t a, std::size_t b_) {
                            const double va = row[span.offset + a];
                            const double vb = row[span.offset + b_];
                            return va != vb ? va > vb : a < b_;
                          });
        for (std::size_t j = 0; j < take; ++j) {
          mask.set(span.offset + order_[j]);
        }
      }
    }
  }

 private:
  TopKCriterion(nn::Sequential model, const Shape& item_shape,
                const CriterionConfig& config)
      : NeuronValueCriterion(std::move(model), item_shape, config) {
    DNNV_CHECK(config_.top_k > 0, "'topk' needs top_k > 0");
  }

  std::vector<std::size_t> order_;  ///< per-layer selection scratch
};

// ---------------- registry ----------------

template <typename Built>
CriterionFactory factory_of() {
  return [](const CriterionContext& ctx,
            const CriterionConfig& config) -> std::unique_ptr<Criterion> {
    return std::make_unique<Built>(ctx, config);
  };
}

struct Registry {
  std::map<std::string, CriterionFactory> factories;
  std::vector<std::string> order;

  static Registry& instance() {
    static Registry registry = [] {
      Registry r;
      r.add("parameter", factory_of<ParameterCriterion>());
      r.add("neuron", factory_of<NeuronCriterion>());
      r.add("ksection", factory_of<KSectionCriterion>());
      r.add("boundary", factory_of<BoundaryCriterion>());
      r.add("topk", factory_of<TopKCriterion>());
      return r;
    }();
    return registry;
  }

  void add(const std::string& name, CriterionFactory factory) {
    factories.emplace(name, std::move(factory));
    order.push_back(name);
  }
};

}  // namespace

std::unique_ptr<Criterion> make_parameter_criterion(
    const nn::Sequential& model, const CoverageConfig& coverage) {
  CriterionContext ctx;
  ctx.model = &model;
  CriterionConfig config;
  config.parameter = coverage;
  return make_criterion("parameter", ctx, config);
}

std::unique_ptr<Criterion> make_criterion(const std::string& name,
                                          const CriterionContext& ctx,
                                          const CriterionConfig& config) {
  const auto& registry = Registry::instance();
  const auto it = registry.factories.find(name);
  if (it == registry.factories.end()) {
    std::string known;
    for (const auto& n : registry.order) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    DNNV_THROW("unknown coverage criterion '" << name << "' (registered: "
                                              << known << ")");
  }
  return it->second(ctx, config);
}

bool criterion_registered(const std::string& name) {
  return Registry::instance().factories.count(name) > 0;
}

std::vector<std::string> criterion_names() {
  return Registry::instance().order;
}

void register_criterion(const std::string& name, CriterionFactory factory,
                        bool replace) {
  Registry& registry = Registry::instance();
  const auto it = registry.factories.find(name);
  if (it == registry.factories.end()) {
    registry.add(name, std::move(factory));
    return;
  }
  DNNV_CHECK(replace, "coverage criterion '"
                          << name
                          << "' is already registered (pass replace = true "
                             "to override it)");
  it->second = std::move(factory);
}

}  // namespace dnnv::cov
