#include "testgen/generator.h"

#include <map>
#include <utility>

#include "testgen/gradient_generator.h"
#include "testgen/greedy_selector.h"
#include "testgen/neuron_selector.h"
#include "util/error.h"

namespace dnnv::testgen {
namespace {

const nn::Sequential& require_model(const GenContext& ctx, const char* method) {
  DNNV_CHECK(ctx.model != nullptr, method << " generator needs ctx.model");
  return *ctx.model;
}

const std::vector<Tensor>& require_pool(const GenContext& ctx,
                                        const char* method) {
  DNNV_CHECK(ctx.pool != nullptr, method << " generator needs ctx.pool");
  return *ctx.pool;
}

void require_item(const GenContext& ctx, const char* method) {
  DNNV_CHECK(ctx.item_shape.ndim() > 0,
             method << " generator needs ctx.item_shape");
  DNNV_CHECK(ctx.num_classes > 0, method << " generator needs ctx.num_classes");
}

/// The criterion a run measures by: ctx.criterion, or else the method's
/// default from `make_default`, owned by `fallback`. Pool masks are valid
/// only with the criterion that measured them, so masks without a criterion
/// are rejected here, once for every method.
template <typename MakeDefault>
cov::Criterion& resolve_criterion(const GenContext& ctx, const char* method,
                                  std::unique_ptr<cov::Criterion>& fallback,
                                  MakeDefault make_default) {
  DNNV_CHECK(ctx.masks == nullptr || ctx.criterion != nullptr,
             method << " generator: ctx.masks are valid only with the "
                       "ctx.criterion that measured them");
  if (ctx.criterion != nullptr) return *ctx.criterion;
  fallback = make_default();
  return *fallback;
}

/// The default of every method but "neuron": parameter-activation coverage.
cov::Criterion& resolve_parameter_criterion(
    const GenContext& ctx, const char* method,
    const cov::CoverageConfig& coverage,
    std::unique_ptr<cov::Criterion>& fallback) {
  return resolve_criterion(ctx, method, fallback, [&] {
    return cov::make_parameter_criterion(require_model(ctx, method), coverage);
  });
}

/// The pool's masks: ctx.masks when given, else measured by `criterion`
/// into `measured`.
const std::vector<DynamicBitset>& resolve_masks(
    const GenContext& ctx, const std::vector<Tensor>& pool,
    const cov::Criterion& criterion, std::vector<DynamicBitset>& measured) {
  if (ctx.masks != nullptr) return *ctx.masks;
  measured = criterion.measure_pool(pool);
  return measured;
}

/// Resolves the shared accumulator, or backs the run with `scratch` over the
/// criterion's point space when the caller did not pass one (the trajectory
/// still reaches the result).
cov::CoverageAccumulator& resolve_accumulator(
    const GenContext& ctx, const cov::Criterion& criterion,
    std::unique_ptr<cov::CoverageAccumulator>& scratch) {
  if (ctx.accumulator != nullptr) return *ctx.accumulator;
  scratch = std::make_unique<cov::CoverageAccumulator>(criterion.total_points());
  return *scratch;
}

// ---- Adapters ----

class GreedyAdapter final : public Generator {
 public:
  explicit GreedyAdapter(const GeneratorConfig& config)
      : coverage_(config.coverage) {
    options_.max_tests = config.max_tests;
    options_.stop_on_zero_gain = config.stop_on_zero_gain;
  }

  std::string name() const override { return "greedy"; }

  GenerationResult generate(const GenContext& ctx) const override {
    const auto& pool = require_pool(ctx, "greedy");
    std::unique_ptr<cov::Criterion> fallback;
    auto& criterion =
        resolve_parameter_criterion(ctx, "greedy", coverage_, fallback);
    std::vector<DynamicBitset> measured;
    const auto& masks = resolve_masks(ctx, pool, criterion, measured);
    std::unique_ptr<cov::CoverageAccumulator> scratch;
    auto& accumulator = resolve_accumulator(ctx, criterion, scratch);
    std::vector<bool> used(pool.size(), false);
    return GreedySelector(options_).select_with_masks(pool, masks, accumulator,
                                                      used);
  }

 private:
  GreedySelector::Options options_;
  cov::CoverageConfig coverage_;
};

class GradientAdapter final : public Generator {
 public:
  explicit GradientAdapter(const GeneratorConfig& config)
      : options_(config.gradient), coverage_(config.coverage) {
    options_.max_tests = config.max_tests;
  }

  std::string name() const override { return "gradient"; }

  GenerationResult generate(const GenContext& ctx) const override {
    const auto& model = require_model(ctx, "gradient");
    require_item(ctx, "gradient");
    std::unique_ptr<cov::Criterion> fallback;
    auto& criterion =
        resolve_parameter_criterion(ctx, "gradient", coverage_, fallback);
    std::unique_ptr<cov::CoverageAccumulator> scratch;
    auto& accumulator = resolve_accumulator(ctx, criterion, scratch);
    return GradientGenerator(options_).generate(
        criterion, model, ctx.item_shape, ctx.num_classes, accumulator);
  }

 private:
  GradientGenerator::Options options_;
  cov::CoverageConfig coverage_;
};

class CombinedAdapter final : public Generator {
 public:
  explicit CombinedAdapter(const GeneratorConfig& config)
      : coverage_(config.coverage) {
    options_.max_tests = config.max_tests;
    options_.policy = config.policy;
    options_.probe_refresh = config.probe_refresh;
    options_.gradient = config.gradient;
  }

  std::string name() const override { return "combined"; }

  GenerationResult generate(const GenContext& ctx) const override {
    const auto& model = require_model(ctx, "combined");
    const auto& pool = require_pool(ctx, "combined");
    require_item(ctx, "combined");
    std::unique_ptr<cov::Criterion> fallback;
    auto& criterion =
        resolve_parameter_criterion(ctx, "combined", coverage_, fallback);
    std::vector<DynamicBitset> measured;
    const auto& masks = resolve_masks(ctx, pool, criterion, measured);
    std::unique_ptr<cov::CoverageAccumulator> scratch;
    auto& accumulator = resolve_accumulator(ctx, criterion, scratch);
    return CombinedGenerator(options_).generate(criterion, model, pool, masks,
                                                ctx.item_shape,
                                                ctx.num_classes, accumulator);
  }

 private:
  CombinedGenerator::Options options_;
  cov::CoverageConfig coverage_;
};

class NeuronAdapter final : public Generator {
 public:
  explicit NeuronAdapter(const GeneratorConfig& config)
      : neuron_(config.neuron) {
    options_.max_tests = config.max_tests;
    options_.fill_seed = config.neuron_fill_seed;
  }

  std::string name() const override { return "neuron"; }

  // The "neuron" METHOD is a selection strategy — greedy to saturation,
  // then random fill — over the criterion's points; by default those of
  // the "neuron" criterion (the [10]/[11] baseline).
  GenerationResult generate(const GenContext& ctx) const override {
    const auto& pool = require_pool(ctx, "neuron");
    std::unique_ptr<cov::Criterion> fallback;
    auto& criterion = resolve_criterion(ctx, "neuron", fallback, [&] {
      cov::CriterionContext criterion_ctx;
      criterion_ctx.model = &require_model(ctx, "neuron");
      DNNV_CHECK(ctx.item_shape.ndim() > 0,
                 "neuron generator needs ctx.item_shape");
      criterion_ctx.item_shape = ctx.item_shape;
      cov::CriterionConfig config;
      config.neuron_threshold = neuron_.threshold;
      return cov::make_criterion("neuron", criterion_ctx, config);
    });
    std::vector<DynamicBitset> measured;
    return NeuronCoverageSelector(options_).select_with_masks(
        pool, resolve_masks(ctx, pool, criterion, measured));
  }

 private:
  NeuronCoverageSelector::Options options_;
  cov::NeuronCoverageConfig neuron_;
};

class RandomAdapter final : public Generator {
 public:
  explicit RandomAdapter(const GeneratorConfig& config)
      : max_tests_(config.max_tests),
        seed_(config.random_seed),
        coverage_(config.coverage) {}

  std::string name() const override { return "random"; }

  GenerationResult generate(const GenContext& ctx) const override {
    const auto& pool = require_pool(ctx, "random");
    GenerationResult result = RandomSelector(max_tests_, seed_).select(pool);
    // Selection never consults coverage; the control only reports its
    // coverage trajectory (what Fig 3 plots for the random curve), and only
    // when there is a criterion to measure it by. Without ctx.model there
    // is no default criterion, hence no trajectory.
    if (ctx.criterion == nullptr && ctx.masks == nullptr &&
        ctx.model == nullptr) {
      return result;
    }
    std::unique_ptr<cov::Criterion> fallback;
    auto& criterion =
        resolve_parameter_criterion(ctx, "random", coverage_, fallback);
    std::unique_ptr<cov::CoverageAccumulator> scratch;
    auto& accumulator = resolve_accumulator(ctx, criterion, scratch);
    auto record = [&](const DynamicBitset& mask) {
      accumulator.add(mask);
      result.coverage_after.push_back(accumulator.coverage());
    };
    if (ctx.masks != nullptr) {
      DNNV_CHECK(ctx.masks->size() == pool.size(), "pool/mask size mismatch");
      for (const auto& test : result.tests) {
        record((*ctx.masks)[static_cast<std::size_t>(test.pool_index)]);
      }
    } else {
      // Measure only the selected tests — the whole-pool pass is for
      // benches that share masks across methods.
      std::vector<Tensor> selected;
      selected.reserve(result.tests.size());
      for (const auto& test : result.tests) selected.push_back(test.input);
      for (const auto& mask : criterion.measure_pool(selected)) record(mask);
    }
    result.final_coverage = accumulator.coverage();
    return result;
  }

 private:
  int max_tests_;
  std::uint64_t seed_;
  cov::CoverageConfig coverage_;
};

template <typename Adapter>
GeneratorFactory factory_of() {
  return [](const GeneratorConfig& config) -> std::unique_ptr<Generator> {
    return std::make_unique<Adapter>(config);
  };
}

struct Registry {
  std::map<std::string, GeneratorFactory> factories;
  std::vector<std::string> order;

  void add(const std::string& name, GeneratorFactory factory) {
    if (factories.emplace(name, factory).second) {
      order.push_back(name);
    } else {
      factories[name] = std::move(factory);
    }
  }

  static Registry& instance() {
    static Registry registry = [] {
      Registry r;
      r.add("greedy", factory_of<GreedyAdapter>());
      r.add("gradient", factory_of<GradientAdapter>());
      r.add("combined", factory_of<CombinedAdapter>());
      r.add("neuron", factory_of<NeuronAdapter>());
      r.add("random", factory_of<RandomAdapter>());
      return r;
    }();
    return registry;
  }
};

}  // namespace

std::unique_ptr<Generator> make_generator(const std::string& name,
                                          const GeneratorConfig& config) {
  const auto& registry = Registry::instance();
  const auto it = registry.factories.find(name);
  if (it == registry.factories.end()) {
    std::string known;
    for (const auto& n : registry.order) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    DNNV_THROW("unknown generator '" << name << "' (registered: " << known
                                     << ")");
  }
  return it->second(config);
}

bool generator_registered(const std::string& name) {
  return Registry::instance().factories.count(name) > 0;
}

std::vector<std::string> generator_names() {
  return Registry::instance().order;
}

void register_generator(const std::string& name, GeneratorFactory factory) {
  Registry::instance().add(name, std::move(factory));
}

}  // namespace dnnv::testgen
