#include "validate/test_suite.h"

#include <utility>

#include "tensor/batch.h"
#include "util/error.h"
#include "util/protected_file.h"

namespace dnnv::validate {

namespace {
constexpr std::uint32_t kPackageMagic = 0x50564E44;  // "DNVP"
constexpr std::uint32_t kPackageVersion = 1;
}  // namespace

TestSuite TestSuite::create(nn::Sequential& vendor_model,
                            const std::vector<testgen::FunctionalTest>& tests) {
  std::vector<Tensor> inputs;
  inputs.reserve(tests.size());
  for (const auto& test : tests) inputs.push_back(test.input);
  return create(vendor_model, inputs);
}

TestSuite TestSuite::create(nn::Sequential& vendor_model,
                            const std::vector<Tensor>& inputs) {
  DNNV_CHECK(!inputs.empty(), "cannot create an empty test suite");
  TestSuite suite;
  suite.inputs_ = inputs;
  suite.golden_labels_ = vendor_model.predict_labels(stack_batch(inputs));
  return suite;
}

TestSuite TestSuite::from_labels(std::vector<Tensor> inputs,
                                 std::vector<int> golden_labels) {
  DNNV_CHECK(!inputs.empty(), "cannot create an empty test suite");
  DNNV_CHECK(inputs.size() == golden_labels.size(),
             "inputs/labels size mismatch");
  TestSuite suite;
  suite.inputs_ = std::move(inputs);
  suite.golden_labels_ = std::move(golden_labels);
  return suite;
}

TestSuite TestSuite::prefix(std::size_t count) const {
  DNNV_CHECK(count <= size(), "prefix " << count << " exceeds suite " << size());
  TestSuite out;
  out.inputs_.assign(inputs_.begin(),
                     inputs_.begin() + static_cast<std::ptrdiff_t>(count));
  out.golden_labels_.assign(
      golden_labels_.begin(),
      golden_labels_.begin() + static_cast<std::ptrdiff_t>(count));
  return out;
}

void TestSuite::save(ByteWriter& writer) const {
  DNNV_CHECK(!empty(), "refusing to serialise an empty suite");
  writer.write_u64(inputs_.size());
  // All inputs share a shape; store it once.
  const Shape& shape = inputs_.front().shape();
  writer.write_u64(shape.ndim());
  for (std::size_t d = 0; d < shape.ndim(); ++d) {
    writer.write_i64(shape[d]);
  }
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    DNNV_CHECK(inputs_[i].shape() == shape, "suite inputs must share a shape");
    writer.write_f32_array(inputs_[i].data(),
                           static_cast<std::size_t>(inputs_[i].numel()));
    writer.write_i64(golden_labels_[i]);
  }
}

TestSuite TestSuite::load(ByteReader& reader) {
  // Each test stores at least one float and its label, each dimension one
  // i64, and the dims' product must fit the bytes that follow, so no forged
  // count or geometry can wrap Shape::numel or size a read beyond the input.
  const std::size_t count =
      reader.read_count(sizeof(float) + sizeof(std::int64_t));
  DNNV_CHECK(count > 0, "empty test suite");
  const std::size_t ndim = reader.read_count(sizeof(std::int64_t));
  DNNV_CHECK(ndim > 0, "test input of rank 0");
  std::vector<std::int64_t> dims;
  for (std::size_t d = 0; d < ndim; ++d) {
    dims.push_back(reader.read_i64());
    DNNV_CHECK(dims.back() > 0, "non-positive dimension " << dims.back());
  }
  const std::size_t numel = reader.geometry_count(dims, sizeof(float));
  const Shape shape{dims};
  TestSuite suite;
  for (std::size_t i = 0; i < count; ++i) {
    auto values = reader.read_f32_array(numel);
    suite.inputs_.emplace_back(shape, std::move(values));
    suite.golden_labels_.push_back(static_cast<int>(reader.read_i64()));
  }
  return suite;
}

void TestSuite::save_package(const std::string& path, std::uint64_t key) const {
  ByteWriter payload;
  save(payload);
  write_protected_file(path, payload.take(), key, kPackageMagic,
                       kPackageVersion, "test package");
}

TestSuite TestSuite::load_package(const std::string& path, std::uint64_t key) {
  ByteReader payload(read_protected_file(path, key, kPackageMagic,
                                         kPackageVersion, "test package"));
  // The CRC already passed, so parse failures past this point mean the
  // keystream decoded garbage — i.e. the key is wrong, not the file.
  try {
    return load(payload);
  } catch (const Error& error) {
    DNNV_THROW("package rejected — wrong key? (" << error.what() << ")");
  }
}

}  // namespace dnnv::validate
