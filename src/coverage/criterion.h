// Pluggable coverage-criterion API.
//
// The paper's generation loop is "pick the input that maximizes coverage
// gain" — but WHICH coverage is a design axis of its own: the paper's
// parameter-activation metric (Eq. 2/3), the hardware-testing neuron
// baseline ([10]/[11]), and the stronger structural criteria of the DNN-
// testing literature (k-multisection / boundary / top-k neuron coverage,
// Sun et al. arXiv:1803.04792; multi-criteria generation, arXiv:2411.01033).
// Criterion normalises them all to one interface —
//   measure(batch) -> per-item point masks, observe(batch) -> covered set,
//   gain(candidate) -> greedy marginal gain, CoverageMap snapshot/merge —
// plus a string-keyed registry (make_criterion) mirroring
// testgen::make_generator, so generators, the vendor pipeline, the CLI and
// the benches select criteria by name. The "parameter" and "neuron"
// built-ins are thin adapters over ParameterCoverage / NeuronCoverage and
// bit-identical to them (guarded by coverage_criteria_test).
//
// Every criterion is batch-native (masks come from one nn::Workspace
// forward per batch) and int8-aware: bind CriterionContext::qmodel and the
// criterion measures the QuantModel's dequantized_reference() — the weights
// the IP actually carries — instead of the float master.
#ifndef DNNV_COVERAGE_CRITERION_H_
#define DNNV_COVERAGE_CRITERION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coverage/accumulator.h"
#include "coverage/neuron_coverage.h"
#include "coverage/parameter_coverage.h"
#include "nn/sequential.h"
#include "util/bitset.h"
#include "util/serialize.h"

namespace dnnv::quant {
class QuantModel;
}  // namespace dnnv::quant

namespace dnnv::cov {

/// One config for every criterion — a superset of the per-criterion knobs
/// (the GeneratorConfig idiom). Serialisable, so a Deliverable manifest
/// round-trips the exact criterion a suite was generated under.
struct CriterionConfig {
  /// "parameter": the |gradient| threshold.
  CoverageConfig parameter;
  /// Neuron-family activation threshold ("neuron"; also the DeepXplore-style
  /// value extraction every neuron-family criterion shares: dense units
  /// report their activation, conv channels their plane mean).
  double neuron_threshold = 0.0;
  /// "ksection": number of sections each neuron's calibrated range splits
  /// into (DeepGauge's k-multisection coverage).
  int sections = 10;
  /// "topk": per layer, the k most-activated neurons count as covered.
  int top_k = 2;
  /// Calibrated per-neuron activation ranges ("ksection"/"boundary"). Empty
  /// at construction means "calibrate from CriterionContext::calibration";
  /// Criterion::config() returns them materialised, so a shipped manifest
  /// reconstructs the SAME criterion without the vendor's pool.
  std::vector<float> range_low;
  std::vector<float> range_high;

  void save(ByteWriter& writer) const;
  static CriterionConfig load(ByteReader& reader);
};

/// Everything a criterion may bind to, bundled (the GenContext idiom).
/// Pointees are borrowed and only read during make_criterion — criteria
/// clone what they keep, so the context may go away afterwards.
struct CriterionContext {
  /// The model under test (float master). Required unless qmodel is set.
  const nn::Sequential* model = nullptr;
  /// Int8 artifact: when set, the criterion binds the QuantModel's
  /// dequantized_reference() — coverage of the weights the IP executes.
  const quant::QuantModel* qmodel = nullptr;
  /// Un-batched input shape; required by the neuron-family criteria.
  Shape item_shape;
  /// Range-calibration pool for "ksection"/"boundary" (ignored when the
  /// config already carries materialised ranges).
  const std::vector<Tensor>* calibration = nullptr;
};

/// Abstract coverage criterion: a universe of total_points() coverage
/// points over one bound model, a batch-native measurement of which points
/// an input hits, and a running covered-set with greedy gain queries.
/// Instances are single-threaded (they own a model clone + workspace);
/// clone() hands fresh instances to worker threads.
class Criterion {
 public:
  virtual ~Criterion() = default;

  /// Registry name ("parameter", "neuron", "ksection", ...).
  virtual std::string name() const = 0;

  /// One-line human description including the effective knobs.
  virtual std::string describe() const = 0;

  /// Effective config: the constructor's knobs with calibrated state
  /// (e.g. ksection/boundary ranges) materialised — what a manifest ships.
  virtual CriterionConfig config() const = 0;

  /// Size of the point universe (parameters; neurons; neurons × sections).
  virtual std::size_t total_points() const = 0;

  /// True when points index the model's global parameter space — the hook
  /// that lets Algorithm 2's masked-model synthesis consume covered().
  virtual bool parameter_indexed() const { return false; }

  /// Fresh instance over a clone of the bound model (worker threads).
  virtual std::unique_ptr<Criterion> clone() const = 0;

  /// Per-item point masks of one batched input [B, ...]; does NOT touch the
  /// covered set. `masks` is resized to B with every bitset cleared in
  /// place, so steady-state calls reuse all mask storage.
  void measure(const Tensor& batch, std::vector<DynamicBitset>& masks);

  /// Allocating variant of measure().
  std::vector<DynamicBitset> measure(const Tensor& batch);

  /// Masks for a whole input pool, order-preserving: chunked batches, one
  /// criterion clone per worker thread (deterministic, identical to the
  /// serial sweep — the single pool_sweep helper behind every criterion).
  std::vector<DynamicBitset> measure_pool(
      const std::vector<Tensor>& pool) const;

  /// Measures `batch` into internal scratch (storage reused across calls —
  /// no per-batch allocations once warmed) and unions every item's points
  /// into the covered set. Returns the number of newly covered points.
  std::size_t observe(const Tensor& batch);

  /// Points `candidate` would newly cover — the greedy-selection query.
  std::size_t gain(const DynamicBitset& candidate) const;

  /// Covered-set snapshot (empty map before the first observe).
  const CoverageMap& covered() const { return covered_; }

  /// Covered fraction in [0, 1].
  double coverage() const;

  /// Clears the covered set (the universe stays).
  void reset_coverage() { covered_.reset(); }

 protected:
  /// Fills `masks` with each item's hit points. Implementations size and
  /// clear the masks themselves — the ParameterCoverage / NeuronCoverage
  /// into-variants already do, and value criteria call prepare_masks() — so
  /// storage is zeroed exactly once per batch.
  virtual void measure_batch(const Tensor& batch,
                             std::vector<DynamicBitset>& masks) = 0;

  /// Resizes `masks` to `batch_size` bitsets of total_points() bits, each
  /// cleared in place (word storage reused when already the right size).
  void prepare_masks(std::vector<DynamicBitset>& masks,
                     std::size_t batch_size) const;

 private:
  CoverageMap covered_;
  std::vector<DynamicBitset> observe_masks_;  ///< observe() scratch, reused
};

/// Factory signature for registry entries.
using CriterionFactory = std::function<std::unique_ptr<Criterion>(
    const CriterionContext&, const CriterionConfig&)>;

/// Instantiates a registered criterion by name, bound to `ctx`; throws
/// dnnv::Error for unknown names (listing the registered ones) or a context
/// missing something the criterion needs. Built-in names:
///   "parameter"  paper Eq. 2 parameter-activation coverage (ParameterCoverage)
///   "neuron"     DeepXplore-style neuron coverage ([10]/[11] baseline)
///   "ksection"   k-multisection neuron coverage (Sun et al. 1803.04792)
///   "boundary"   neuron boundary coverage (NBC; upper half = SNAC)
///   "topk"       top-k neuron coverage (per-layer most-activated units)
std::unique_ptr<Criterion> make_criterion(const std::string& name,
                                          const CriterionContext& ctx,
                                          const CriterionConfig& config = {});

/// Convenience for the paper's default metric: a "parameter" criterion
/// over `model` with the given activation config — the default criterion
/// of every generation method but "neuron".
std::unique_ptr<Criterion> make_parameter_criterion(
    const nn::Sequential& model, const CoverageConfig& coverage);

/// True when `name` resolves.
bool criterion_registered(const std::string& name);

/// All registered names, registration order (built-ins first).
std::vector<std::string> criterion_names();

/// Registers a custom criterion under `name` — the hook for out-of-tree
/// criteria to join generators/pipeline/CLI by name. Registering an
/// existing name throws unless `replace` is set (built-ins carry
/// bit-identity guarantees; replacing one must be deliberate).
void register_criterion(const std::string& name, CriterionFactory factory,
                        bool replace = false);

}  // namespace dnnv::cov

#endif  // DNNV_COVERAGE_CRITERION_H_
