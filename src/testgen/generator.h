// Unified generation API: every test-generation method behind one interface.
//
// The paper's methods (Algorithm 1 selection, Algorithm 2 synthesis, the
// §IV-D combined rule) and the comparison baselines (neuron coverage,
// random) all run as
//   GenerationResult generate(const GenContext&)
// behind a string-keyed factory (make_generator), so callers select methods
// by name — the pluggable-criterion design of coverage-guided DNN testing
// frameworks (DeepConcolic, DeepHunter et al.) applied to this codebase.
// Every method measures coverage through one cov::Criterion: the caller's,
// or the method's default built from GeneratorConfig.
#ifndef DNNV_TESTGEN_GENERATOR_H_
#define DNNV_TESTGEN_GENERATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coverage/accumulator.h"
#include "coverage/criterion.h"
#include "coverage/neuron_coverage.h"
#include "coverage/parameter_coverage.h"
#include "nn/sequential.h"
#include "testgen/combined_generator.h"
#include "testgen/functional_test.h"

namespace dnnv::testgen {

/// Everything a generation run may consume, bundled. Pointees are borrowed:
/// they must outlive the generate() call. Not every method uses every field
/// (e.g. "gradient" ignores the pool; "neuron" ignores the accumulator) —
/// adapters check what they actually need and throw dnnv::Error on a
/// missing requirement.
struct GenContext {
  /// The vendor model the suite must exercise. Required by "gradient" and
  /// "combined", and by every method that builds its default criterion.
  const nn::Sequential* model = nullptr;
  /// Training-candidate pool. Required by pool-selection methods
  /// ("greedy", "combined", "neuron", "random").
  const std::vector<Tensor>* pool = nullptr;
  /// Optional precomputed pool masks, from criterion->measure_pool. Valid
  /// only together with the criterion that measured them: masks without a
  /// criterion throw. Passing them lets benches share the expensive pool
  /// pass across methods; when absent, methods that need masks measure the
  /// pool themselves.
  const std::vector<DynamicBitset>* masks = nullptr;
  /// Un-batched input shape (CHW / feature vector).
  Shape item_shape;
  int num_classes = 0;
  /// Coverage criterion the run selects by (borrowed; single-threaded use).
  /// Pool/probe masks come from criterion->measure*, greedy picks maximise
  /// criterion gain, and the accumulator universe is
  /// criterion->total_points(). When null, each method builds its default
  /// from GeneratorConfig: the "neuron" criterion at neuron.threshold for
  /// "neuron", the "parameter" criterion at `coverage` for every other
  /// method.
  cov::Criterion* criterion = nullptr;
  /// Shared coverage accumulator, updated as tests are emitted. Optional:
  /// when null, methods that track coverage use a scratch one (the
  /// trajectory still lands in GenerationResult::coverage_after).
  cov::CoverageAccumulator* accumulator = nullptr;
};

/// One config for every method — a superset of the per-method option
/// structs. Adapters copy the fields their method understands.
struct GeneratorConfig {
  int max_tests = 50;
  /// "parameter" criterion knobs: the default criterion of "greedy" /
  /// "gradient" / "combined" / "random" when the context brings none
  /// (VendorPipeline builds its "parameter" criterion from them too).
  cov::CoverageConfig coverage;
  /// Algorithm 2 knobs ("gradient" and the combined method's synthesis
  /// side). gradient.max_tests is overridden by max_tests above.
  GradientGenerator::Options gradient;
  // -- "combined" --
  SwitchPolicy policy = SwitchPolicy::kSwitchOnce;
  int probe_refresh = 8;
  // -- "greedy" --
  bool stop_on_zero_gain = false;
  // -- "neuron" baseline --
  /// Default "neuron" criterion of "neuron" when the context brings none.
  cov::NeuronCoverageConfig neuron;
  std::uint64_t neuron_fill_seed = 11;
  // -- "random" control --
  std::uint64_t random_seed = 17;
};

/// Abstract test generator. Implementations are immutable after
/// construction and safe to reuse across generate() calls.
class Generator {
 public:
  virtual ~Generator() = default;

  /// Registry name ("combined", "greedy", ...).
  virtual std::string name() const = 0;

  /// Runs the method against `ctx`; throws dnnv::Error when a required
  /// context field is missing.
  virtual GenerationResult generate(const GenContext& ctx) const = 0;
};

/// Factory signature for registry entries.
using GeneratorFactory =
    std::function<std::unique_ptr<Generator>(const GeneratorConfig&)>;

/// Instantiates a registered generator by name; throws dnnv::Error for
/// unknown names (listing the registered ones). Built-in names:
///   "greedy"    Algorithm 1 — greedy training-set selection
///   "gradient"  Algorithm 2 — gradient-based synthesis
///   "combined"  §IV-D switch rule over both algorithms
///   "neuron"    neuron-coverage baseline ([10]/[11])
///   "random"    uniform random-selection control
std::unique_ptr<Generator> make_generator(const std::string& name,
                                          const GeneratorConfig& config = {});

/// True when `name` resolves.
bool generator_registered(const std::string& name);

/// All registered names, registration order (built-ins first).
std::vector<std::string> generator_names();

/// Registers (or replaces) a custom generator under `name` — the hook for
/// out-of-tree methods to join benches/pipeline/CLI by name.
void register_generator(const std::string& name, GeneratorFactory factory);

}  // namespace dnnv::testgen

#endif  // DNNV_TESTGEN_GENERATOR_H_
