#include "exp/model_zoo.h"

#include <cstdlib>
#include <iostream>

#include "data/digits.h"
#include "data/noise.h"
#include "data/ood.h"
#include "data/shapes.h"
#include "nn/builder.h"
#include "nn/trainer.h"
#include "util/error.h"
#include "util/serialize.h"
#include "util/stopwatch.h"

namespace dnnv::exp {
namespace {

constexpr std::uint32_t kZooMagic = 0x4F4F5A44;  // "DZOO"
constexpr std::uint32_t kZooVersion = 1;

// Dataset seeds — fixed so every bench/test sees the same data universes.
constexpr std::uint64_t kDigitsTrainSeed = 101;
constexpr std::uint64_t kDigitsTestSeed = 102;
constexpr std::uint64_t kShapesTrainSeed = 201;
constexpr std::uint64_t kShapesTestSeed = 202;
constexpr std::uint64_t kOodSeed = 301;
constexpr std::uint64_t kNoiseSeed = 401;

struct ZooEntry {
  std::string name;
  nn::ConvNetSpec spec;
  std::uint64_t init_seed;
  double epsilon;
  std::int64_t train_count;
  std::int64_t test_count;
  nn::TrainConfig train;
};

std::string cache_path(const ZooOptions& options, const std::string& name) {
  return cache_dir(options) + "/" + name + ".dnnv";
}

void save_cached(const std::string& path, const TrainedModel& trained) {
  ByteWriter writer;
  writer.write_u32(kZooMagic);
  writer.write_u32(kZooVersion);
  writer.write_string(trained.name);
  writer.write_u64(trained.item_shape.ndim());
  for (std::size_t d = 0; d < trained.item_shape.ndim(); ++d) {
    writer.write_i64(trained.item_shape[d]);
  }
  writer.write_i64(trained.num_classes);
  writer.write_f64(trained.train_accuracy);
  writer.write_f64(trained.test_accuracy);
  writer.write_f64(trained.coverage.epsilon);
  trained.model.save(writer);
  write_file(path, writer.bytes());
}

bool load_cached(const std::string& path, TrainedModel& trained) {
  if (!file_exists(path)) return false;
  ByteReader reader(read_file(path));
  if (reader.read_u32() != kZooMagic) return false;
  if (reader.read_u32() != kZooVersion) return false;
  trained.name = reader.read_string();
  const std::size_t ndim = reader.read_count(sizeof(std::int64_t));
  std::vector<std::int64_t> dims;
  for (std::size_t d = 0; d < ndim; ++d) dims.push_back(reader.read_i64());
  trained.item_shape = Shape{dims};
  trained.num_classes = static_cast<int>(reader.read_i64());
  trained.train_accuracy = reader.read_f64();
  trained.test_accuracy = reader.read_f64();
  trained.coverage.epsilon = reader.read_f64();
  trained.model = nn::Sequential::load(reader);
  return true;
}

/// `make_set(count)` builds the train or test split; both are built only on
/// a cache miss, since a cached entry needs neither.
using MakeSet = data::MaterializedData (*)(std::int64_t);

TrainedModel train_entry(const ZooEntry& entry, MakeSet make_train,
                         MakeSet make_test, const ZooOptions& options) {
  TrainedModel trained;
  trained.name = entry.name;
  trained.item_shape = Shape{std::vector<std::int64_t>{
      entry.spec.in_channels, entry.spec.in_height, entry.spec.in_width}};
  trained.num_classes = static_cast<int>(entry.spec.num_classes);
  trained.coverage.epsilon = entry.epsilon;

  const std::string path = cache_path(options, entry.name);
  if (!options.retrain && load_cached(path, trained)) {
    return trained;
  }

  const data::MaterializedData train_data = make_train(entry.train_count);
  const data::MaterializedData test_data = make_test(entry.test_count);
  Rng init_rng(entry.init_seed);
  trained.model = nn::build_convnet(entry.spec, init_rng);
  if (options.verbose) {
    std::cerr << "[zoo] training " << entry.name << " ("
              << trained.model.param_count() << " params) on "
              << train_data.images.size() << " samples\n";
  }
  Stopwatch timer;
  nn::TrainConfig config = entry.train;
  if (options.verbose) {
    config.on_epoch = [&](int epoch, double loss) {
      std::cerr << "[zoo]   epoch " << epoch << " loss " << loss << "\n";
    };
  }
  nn::fit(trained.model, train_data.images, train_data.labels, config);
  trained.train_accuracy = nn::evaluate_accuracy(
      trained.model, train_data.images, train_data.labels);
  trained.test_accuracy =
      nn::evaluate_accuracy(trained.model, test_data.images, test_data.labels);
  if (options.verbose) {
    std::cerr << "[zoo] " << entry.name << " trained in "
              << timer.elapsed_seconds() << "s: train "
              << trained.train_accuracy << ", test " << trained.test_accuracy
              << "\n";
  }
  save_cached(path, trained);
  return trained;
}

}  // namespace

std::string cache_dir(const ZooOptions& options) {
  if (!options.cache_dir.empty()) return options.cache_dir;
  if (const char* env = std::getenv("DNNV_CACHE_DIR"); env != nullptr && *env) {
    return env;
  }
  return ".cache/dnnv";
}

TrainedModel mnist_tanh(const ZooOptions& options) {
  ZooEntry entry;
  entry.spec.in_channels = 1;
  entry.spec.in_height = 28;
  entry.spec.in_width = 28;
  entry.spec.num_classes = 10;
  entry.spec.activation = nn::ActivationKind::kTanh;
  entry.init_seed = 9001;
  entry.epsilon = 0.15;
  entry.train.optimizer = nn::TrainConfig::Opt::kAdam;
  entry.train.learning_rate = 1.5e-3f;
  entry.train.batch_size = 64;
  entry.train.activation_l1 = 1.5e-5f;
  if (options.tiny) {
    entry.name = "mnist_tanh_tiny";
    entry.spec.conv_channels = {6, 6};
    entry.spec.dense_units = {32};
    entry.train_count = 1500;
    entry.test_count = 300;
    entry.train.epochs = 6;
  } else if (options.paper_scale) {
    entry.name = "mnist_tanh_paper";
    entry.spec.conv_channels = {32, 32, 64, 64};
    entry.spec.dense_units = {128};
    entry.train_count = 6000;
    entry.test_count = 1000;
    entry.train.epochs = 6;
  } else {
    entry.name = "mnist_tanh";
    entry.spec.conv_channels = {8, 8, 16, 16};
    entry.spec.dense_units = {64};
    entry.train_count = 6000;
    entry.test_count = 1000;
    entry.train.epochs = 10;
  }
  return train_entry(entry, digits_train, digits_test, options);
}

TrainedModel cifar_relu(const ZooOptions& options) {
  ZooEntry entry;
  entry.spec.in_channels = 3;
  entry.spec.in_height = 32;
  entry.spec.in_width = 32;
  entry.spec.num_classes = 10;
  entry.spec.activation = nn::ActivationKind::kReLU;
  entry.init_seed = 9002;
  entry.epsilon = 0.0;  // ReLU: exact zero-gradient criterion
  entry.train.optimizer = nn::TrainConfig::Opt::kAdam;
  entry.train.learning_rate = 1e-3f;
  entry.train.batch_size = 64;
  entry.train.weight_decay = 2e-5f;
  if (options.tiny) {
    entry.name = "cifar_relu_tiny";
    entry.spec.conv_channels = {8, 8};
    entry.spec.dense_units = {48};
    entry.train_count = 2000;
    entry.test_count = 300;
    entry.train.epochs = 8;
  } else if (options.paper_scale) {
    entry.name = "cifar_relu_paper";
    entry.spec.conv_channels = {64, 64, 128, 128};
    entry.spec.dense_units = {512};
    entry.train_count = 6000;
    entry.test_count = 1000;
    entry.train.epochs = 8;
  } else {
    entry.name = "cifar_relu";
    entry.spec.conv_channels = {16, 16, 32, 32};
    entry.spec.dense_units = {96};
    entry.train_count = 6000;
    entry.test_count = 1000;
    entry.train.epochs = 14;
  }
  return train_entry(entry, shapes_train, shapes_test, options);
}

data::MaterializedData digits_train(std::int64_t count) {
  return data::materialize(data::DigitsDataset(kDigitsTrainSeed, count), count);
}

data::MaterializedData digits_test(std::int64_t count) {
  return data::materialize(data::DigitsDataset(kDigitsTestSeed, count), count);
}

data::MaterializedData shapes_train(std::int64_t count) {
  return data::materialize(data::ShapesDataset(kShapesTrainSeed, count), count);
}

data::MaterializedData shapes_test(std::int64_t count) {
  return data::materialize(data::ShapesDataset(kShapesTestSeed, count), count);
}

data::MaterializedData ood_pool(const TrainedModel& target, std::int64_t count) {
  const int channels = static_cast<int>(target.item_shape[0]);
  const int size = static_cast<int>(target.item_shape[1]);
  return data::materialize(data::OodDataset(kOodSeed, count, channels, size),
                           count);
}

data::MaterializedData noise_pool(const TrainedModel& target,
                                  std::int64_t count) {
  const int channels = static_cast<int>(target.item_shape[0]);
  const int size = static_cast<int>(target.item_shape[1]);
  return data::materialize(
      data::NoiseDataset(kNoiseSeed, count, channels, size), count);
}

}  // namespace dnnv::exp
