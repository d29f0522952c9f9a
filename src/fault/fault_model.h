// Structured fault universe for the quantized accelerator (ATPG-style).
//
// The paper ships a test suite qualified by its fault-detection rate; this
// module makes the fault side of that contract enumerable. A Fault is a
// structural defect of the executed QuantModel — stuck-at-0/1 on weight and
// bias code bits, per-channel requant-multiplier corruption, accumulator
// stuck-at in the MAC epilogue — plus bit-flip and byte-write code faults,
// the byte faults an ip::QuantizedIp weight memory can take. Universes are
// generated deterministically from a QuantModel (same model + config =>
// same fault list, same ids), serialize into the Deliverable manifest, and
// are scored wholesale by fault::FaultSimulator.
#ifndef DNNV_FAULT_FAULT_MODEL_H_
#define DNNV_FAULT_FAULT_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "quant/quant_model.h"
#include "util/serialize.h"

namespace dnnv::fault {

/// Structural fault kinds over the executed int8 model.
enum class FaultKind : std::uint8_t {
  kStuckAt0 = 0,      ///< parameter code bit stuck at 0
  kStuckAt1 = 1,      ///< parameter code bit stuck at 1
  kBitFlip = 2,       ///< parameter code bit inverted (transient upset)
  kByteWrite = 3,     ///< parameter code replaced (substitution attack)
  kRequantMult = 4,   ///< one channel's Q31 requant multiplier bit flipped
  kAccStuckAt0 = 5,   ///< one channel's int32 accumulator bit stuck at 0
  kAccStuckAt1 = 6,   ///< one channel's int32 accumulator bit stuck at 1
};

const char* to_string(FaultKind kind);

/// True for the kinds expressible as a byte fault in QuantizedIp weight
/// memory (at FaultLayout::flat_address, byte value from faulted_code).
bool is_code_fault(FaultKind kind);

/// One structural fault, located by (layer, tensor, unit, bit).
struct Fault {
  FaultKind kind{};
  std::uint8_t layer = 0;    ///< QuantModel layer index (conv/dense)
  std::uint8_t is_bias = 0;  ///< code faults: 0 = weight tensor, 1 = bias
  std::uint8_t bit = 0;      ///< codes 0..7; requant 0..30; accumulator 0..31
  std::uint8_t value = 0;    ///< kByteWrite replacement byte
  std::int64_t unit = 0;     ///< flat code offset, or out channel

  /// Deterministic 64-bit id: (kind | is_bias | bit | value | layer | unit)
  /// bit-packed. Unique within any universe over one model.
  std::uint64_t id() const;

  /// "stuck-at-1 L3 conv1.weight[1204] bit7" style one-liner.
  std::string describe() const;

  void save(ByteWriter& writer) const;
  static Fault load(ByteReader& reader);

  friend bool operator==(const Fault&, const Fault&) = default;
};

/// The resulting code byte after a code fault hits `code` (identity for
/// non-code kinds). Structural collapse keys equivalence on this.
std::int8_t faulted_code(std::int8_t code, const Fault& fault);

/// Byte layout of the model's parameter codes in QuantizedIp weight-memory
/// order (weights before bias, per conv/dense layer, layers ascending) —
/// the bridge between structural Faults and flat memory addresses.
class FaultLayout {
 public:
  explicit FaultLayout(const quant::QuantModel& model);

  std::size_t memory_size() const { return total_; }

  /// Flat byte address of a code fault's target.
  std::size_t flat_address(const Fault& fault) const;

 private:
  struct Span {
    std::uint8_t layer = 0;
    bool is_bias = false;
    std::size_t base = 0;
    std::int64_t size = 0;
  };
  std::vector<Span> spans_;
  std::size_t total_ = 0;
};

/// Universe generation knobs. Defaults give the classic stuck-at universe
/// over sign/mid/low weight bits; presets via universe_config().
struct UniverseConfig {
  bool weight_stuck_at = true;
  bool bias_stuck_at = true;
  bool requant = false;      ///< per-channel requant-multiplier corruption
  bool accumulator = false;  ///< accumulator stuck-at in the MAC epilogue

  std::vector<int> bits = {7, 4, 1};         ///< code bit positions
  std::vector<int> requant_bits = {30, 15};  ///< Q31 multiplier bits
  std::vector<int> acc_bits = {31, 23, 12};  ///< int32 accumulator bits

  std::int64_t stride = 1;      ///< keep every stride-th weight unit
  std::int64_t max_faults = 0;  ///< 0 = unlimited; else thin evenly to this

  void save(ByteWriter& writer) const;
  static UniverseConfig load(ByteReader& reader);

  /// "stuck-at(w+b) bits=7,4,1 stride=4 cap=2048" style one-liner.
  std::string summary() const;
};

/// Named presets: "stuck-at" (weight+bias code stuck-ats) and "full"
/// (adds requant + accumulator faults). Throws on unknown names.
UniverseConfig universe_config(const std::string& preset);

/// An ordered, deterministic fault list over one model.
class FaultUniverse {
 public:
  /// Enumerates the universe of `config` over `model`: layers ascending,
  /// weights before bias, units ascending, bits in config order, stuck-at-0
  /// before stuck-at-1. Deterministic — re-running on the shipped model
  /// regenerates the identical list (how the user side re-measures).
  static FaultUniverse enumerate(const quant::QuantModel& model,
                                 const UniverseConfig& config);

  void add(const Fault& fault) { faults_.push_back(fault); }

  const std::vector<Fault>& faults() const { return faults_; }
  std::size_t size() const { return faults_.size(); }
  bool empty() const { return faults_.empty(); }
  const Fault& operator[](std::size_t i) const { return faults_[i]; }

  void save(ByteWriter& writer) const;
  static FaultUniverse load(ByteReader& reader);

 private:
  std::vector<Fault> faults_;
};

/// Revert record of one applied fault.
struct AppliedFault {
  Fault fault;
  std::int8_t prev_code = 0;         ///< code faults
  std::int32_t prev_multiplier = 0;  ///< kRequantMult
  bool noop = false;                 ///< model state was not changed
};

/// Applies `fault` to `model` through the point-fault surface (poke_code /
/// set_requant_multiplier / set_acc_fault) — O(layer), not O(model) — and
/// returns the revert record.
AppliedFault apply_fault(quant::QuantModel& model, const Fault& fault);

/// Exact inverse of apply_fault().
void revert_fault(quant::QuantModel& model, const AppliedFault& applied);

}  // namespace dnnv::fault

#endif  // DNNV_FAULT_FAULT_MODEL_H_
