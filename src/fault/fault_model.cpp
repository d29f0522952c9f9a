#include "fault/fault_model.h"

#include <sstream>

#include "util/error.h"

namespace dnnv::fault {
namespace {

std::int64_t layer_channels(const quant::QLayer& q) {
  return q.kind == quant::QLayerKind::kConv2d ? q.out_channels
                                              : q.out_features;
}

std::int64_t layer_fanin(const quant::QLayer& q) {
  return q.kind == quant::QLayerKind::kConv2d
             ? q.in_channels * q.kernel * q.kernel
             : q.in_features;
}

bool is_param_layer(const quant::QLayer& q) {
  return q.kind == quant::QLayerKind::kConv2d ||
         q.kind == quant::QLayerKind::kDense;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStuckAt0: return "stuck-at-0";
    case FaultKind::kStuckAt1: return "stuck-at-1";
    case FaultKind::kBitFlip: return "bit-flip";
    case FaultKind::kByteWrite: return "byte-write";
    case FaultKind::kRequantMult: return "requant-mult";
    case FaultKind::kAccStuckAt0: return "acc-stuck-at-0";
    case FaultKind::kAccStuckAt1: return "acc-stuck-at-1";
  }
  return "?";
}

bool is_code_fault(FaultKind kind) {
  return kind == FaultKind::kStuckAt0 || kind == FaultKind::kStuckAt1 ||
         kind == FaultKind::kBitFlip || kind == FaultKind::kByteWrite;
}

std::uint64_t Fault::id() const {
  // kind(3) | is_bias(1) | bit(5) | value(8) | layer(7) | unit(40).
  return (static_cast<std::uint64_t>(kind) << 61) |
         (static_cast<std::uint64_t>(is_bias & 1) << 60) |
         (static_cast<std::uint64_t>(bit & 0x1f) << 55) |
         (static_cast<std::uint64_t>(value) << 47) |
         (static_cast<std::uint64_t>(layer & 0x7f) << 40) |
         (static_cast<std::uint64_t>(unit) & 0xFFFFFFFFFFull);
}

std::string Fault::describe() const {
  std::ostringstream os;
  os << to_string(kind) << " L" << static_cast<int>(layer);
  if (is_code_fault(kind)) {
    os << (is_bias ? " bias[" : " weight[") << unit << "]";
    if (kind == FaultKind::kByteWrite) {
      os << " <- 0x" << std::hex << static_cast<int>(value) << std::dec;
    } else {
      os << " bit" << static_cast<int>(bit);
    }
  } else if (kind == FaultKind::kRequantMult) {
    os << " requant[" << unit << "] bit" << static_cast<int>(bit);
  } else {
    os << " acc[" << unit << "] bit" << static_cast<int>(bit);
  }
  return os.str();
}

void Fault::save(ByteWriter& writer) const {
  writer.write_u8(static_cast<std::uint8_t>(kind));
  writer.write_u8(layer);
  writer.write_u8(is_bias);
  writer.write_u8(bit);
  writer.write_u8(value);
  writer.write_i64(unit);
}

Fault Fault::load(ByteReader& reader) {
  Fault f;
  f.kind = static_cast<FaultKind>(reader.read_u8());
  f.layer = reader.read_u8();
  f.is_bias = reader.read_u8();
  f.bit = reader.read_u8();
  f.value = reader.read_u8();
  f.unit = reader.read_i64();
  return f;
}

std::int8_t faulted_code(std::int8_t code, const Fault& fault) {
  const auto byte = static_cast<std::uint8_t>(code);
  const auto mask = static_cast<std::uint8_t>(1u << fault.bit);
  switch (fault.kind) {
    case FaultKind::kStuckAt0:
      return static_cast<std::int8_t>(byte & static_cast<std::uint8_t>(~mask));
    case FaultKind::kStuckAt1:
      return static_cast<std::int8_t>(byte | mask);
    case FaultKind::kBitFlip:
      return static_cast<std::int8_t>(byte ^ mask);
    case FaultKind::kByteWrite:
      return static_cast<std::int8_t>(fault.value);
    default:
      return code;
  }
}

FaultLayout::FaultLayout(const quant::QuantModel& model) {
  for (std::size_t li = 0; li < model.layers().size(); ++li) {
    const quant::QLayer& q = model.layers()[li];
    if (!is_param_layer(q)) continue;
    const std::int64_t channels = layer_channels(q);
    const std::int64_t fanin = layer_fanin(q);
    spans_.push_back({static_cast<std::uint8_t>(li), false, total_,
                      channels * fanin});
    total_ += static_cast<std::size_t>(channels * fanin);
    spans_.push_back({static_cast<std::uint8_t>(li), true, total_, channels});
    total_ += static_cast<std::size_t>(channels);
  }
}

std::size_t FaultLayout::flat_address(const Fault& fault) const {
  DNNV_CHECK(is_code_fault(fault.kind),
             fault.describe() << " has no memory address");
  for (const Span& span : spans_) {
    if (span.layer == fault.layer && span.is_bias == (fault.is_bias != 0)) {
      DNNV_CHECK(fault.unit >= 0 && fault.unit < span.size,
                 fault.describe() << ": unit out of range");
      return span.base + static_cast<std::size_t>(fault.unit);
    }
  }
  DNNV_THROW(fault.describe() << ": no such parameter tensor");
}

void UniverseConfig::save(ByteWriter& writer) const {
  writer.write_u8(weight_stuck_at ? 1 : 0);
  writer.write_u8(bias_stuck_at ? 1 : 0);
  writer.write_u8(requant ? 1 : 0);
  writer.write_u8(accumulator ? 1 : 0);
  auto write_ints = [&writer](const std::vector<int>& v) {
    writer.write_u64(v.size());
    for (const int b : v) writer.write_i64(b);
  };
  write_ints(bits);
  write_ints(requant_bits);
  write_ints(acc_bits);
  writer.write_i64(stride);
  writer.write_i64(max_faults);
}

UniverseConfig UniverseConfig::load(ByteReader& reader) {
  UniverseConfig c;
  c.weight_stuck_at = reader.read_u8() != 0;
  c.bias_stuck_at = reader.read_u8() != 0;
  c.requant = reader.read_u8() != 0;
  c.accumulator = reader.read_u8() != 0;
  auto read_ints = [&reader] {
    std::vector<int> v(reader.read_count(sizeof(std::int64_t)));
    for (int& b : v) b = static_cast<int>(reader.read_i64());
    return v;
  };
  c.bits = read_ints();
  c.requant_bits = read_ints();
  c.acc_bits = read_ints();
  c.stride = reader.read_i64();
  c.max_faults = reader.read_i64();
  return c;
}

std::string UniverseConfig::summary() const {
  std::ostringstream os;
  os << "stuck-at(";
  if (weight_stuck_at) os << "w";
  if (bias_stuck_at) os << (weight_stuck_at ? "+b" : "b");
  os << ")";
  if (requant) os << "+requant";
  if (accumulator) os << "+acc";
  os << " bits=";
  for (std::size_t i = 0; i < bits.size(); ++i) {
    os << (i ? "," : "") << bits[i];
  }
  if (stride > 1) os << " stride=" << stride;
  if (max_faults > 0) os << " cap=" << max_faults;
  return os.str();
}

UniverseConfig universe_config(const std::string& preset) {
  UniverseConfig config;
  if (preset == "stuck-at") return config;
  if (preset == "full") {
    config.requant = true;
    config.accumulator = true;
    return config;
  }
  DNNV_THROW("unknown fault-universe preset '"
             << preset << "' (expected stuck-at|full)");
}

FaultUniverse FaultUniverse::enumerate(const quant::QuantModel& model,
                                       const UniverseConfig& config) {
  DNNV_CHECK(config.stride >= 1, "universe stride must be >= 1");
  FaultUniverse u;
  const auto& layers = model.layers();
  DNNV_CHECK(layers.size() < 128, "model too deep for the fault id packing");
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const quant::QLayer& q = layers[li];
    if (!is_param_layer(q)) continue;
    const std::int64_t channels = layer_channels(q);
    const std::int64_t fanin = layer_fanin(q);
    Fault f;
    f.layer = static_cast<std::uint8_t>(li);
    if (config.weight_stuck_at) {
      f.is_bias = 0;
      for (std::int64_t unit = 0; unit < channels * fanin;
           unit += config.stride) {
        f.unit = unit;
        for (const int bit : config.bits) {
          f.bit = static_cast<std::uint8_t>(bit);
          f.kind = FaultKind::kStuckAt0;
          u.add(f);
          f.kind = FaultKind::kStuckAt1;
          u.add(f);
        }
      }
    }
    if (config.bias_stuck_at) {
      f.is_bias = 1;
      for (std::int64_t unit = 0; unit < channels; ++unit) {
        f.unit = unit;
        for (const int bit : config.bits) {
          f.bit = static_cast<std::uint8_t>(bit);
          f.kind = FaultKind::kStuckAt0;
          u.add(f);
          f.kind = FaultKind::kStuckAt1;
          u.add(f);
        }
      }
    }
    f.is_bias = 0;
    if (config.requant && !q.dequant_output) {
      f.kind = FaultKind::kRequantMult;
      for (std::int64_t c = 0; c < channels; ++c) {
        f.unit = c;
        for (const int bit : config.requant_bits) {
          f.bit = static_cast<std::uint8_t>(bit);
          u.add(f);
        }
      }
    }
    if (config.accumulator) {
      for (std::int64_t c = 0; c < channels; ++c) {
        f.unit = c;
        for (const int bit : config.acc_bits) {
          f.bit = static_cast<std::uint8_t>(bit);
          f.kind = FaultKind::kAccStuckAt0;
          u.add(f);
          f.kind = FaultKind::kAccStuckAt1;
          u.add(f);
        }
      }
    }
  }
  if (config.max_faults > 0 &&
      static_cast<std::int64_t>(u.faults_.size()) > config.max_faults) {
    // Even deterministic thinning: keep fault floor(j * size / cap) for
    // j in [0, cap) — strictly increasing, so exactly cap faults survive.
    const auto size = static_cast<std::int64_t>(u.faults_.size());
    std::vector<Fault> kept;
    kept.reserve(static_cast<std::size_t>(config.max_faults));
    for (std::int64_t j = 0; j < config.max_faults; ++j) {
      kept.push_back(
          u.faults_[static_cast<std::size_t>(j * size / config.max_faults)]);
    }
    u.faults_ = std::move(kept);
  }
  return u;
}

void FaultUniverse::save(ByteWriter& writer) const {
  writer.write_u64(faults_.size());
  for (const Fault& f : faults_) f.save(writer);
}

FaultUniverse FaultUniverse::load(ByteReader& reader) {
  FaultUniverse u;
  // A Fault is five u8 fields and an i64 unit.
  const std::size_t count = reader.read_count(5 + sizeof(std::int64_t));
  u.faults_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    u.faults_.push_back(Fault::load(reader));
  }
  return u;
}

AppliedFault apply_fault(quant::QuantModel& model, const Fault& fault) {
  AppliedFault applied;
  applied.fault = fault;
  if (is_code_fault(fault.kind)) {
    const std::int8_t prev =
        model.code_at(fault.layer, fault.is_bias != 0, fault.unit);
    const std::int8_t next = faulted_code(prev, fault);
    applied.prev_code =
        model.poke_code(fault.layer, fault.is_bias != 0, fault.unit, next);
    applied.noop = next == prev;
    return applied;
  }
  if (fault.kind == FaultKind::kRequantMult) {
    applied.prev_multiplier = model.requant_multiplier(fault.layer, fault.unit);
    model.set_requant_multiplier(
        fault.layer, fault.unit,
        applied.prev_multiplier ^
            static_cast<std::int32_t>(std::uint32_t{1} << fault.bit));
    return applied;
  }
  const auto mask = static_cast<std::int32_t>(std::uint32_t{1} << fault.bit);
  if (fault.kind == FaultKind::kAccStuckAt1) {
    model.set_acc_fault(fault.layer, fault.unit, mask, -1);
  } else {
    model.set_acc_fault(fault.layer, fault.unit, 0, ~mask);
  }
  return applied;
}

void revert_fault(quant::QuantModel& model, const AppliedFault& applied) {
  const Fault& fault = applied.fault;
  if (is_code_fault(fault.kind)) {
    model.poke_code(fault.layer, fault.is_bias != 0, fault.unit,
                    applied.prev_code);
    return;
  }
  if (fault.kind == FaultKind::kRequantMult) {
    model.set_requant_multiplier(fault.layer, fault.unit,
                                 applied.prev_multiplier);
    return;
  }
  model.clear_acc_fault(fault.layer);
}

}  // namespace dnnv::fault
