#include "common/error.hpp"
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.hpp"
#include "nn/layers.hpp"
#include "nn/serialize.hpp"
#include "scratch_dir.hpp"

namespace deepbat::nn {
namespace {

TEST(Serialize, RoundTripTensors) {
  Rng rng(1);
  std::vector<std::pair<std::string, Tensor>> entries;
  entries.emplace_back("a", Tensor::randn({3, 4}, rng));
  entries.emplace_back("b.weight", Tensor::randn({2}, rng));
  const std::string path = test::scratch_path("ser_roundtrip.bin");
  save_tensors(path, entries);
  const auto loaded = load_tensors(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].first, "a");
  EXPECT_TRUE(loaded[0].second.allclose(entries[0].second, 0.0F));
  EXPECT_EQ(loaded[1].first, "b.weight");
  EXPECT_TRUE(loaded[1].second.allclose(entries[1].second, 0.0F));
  std::remove(path.c_str());
}

TEST(Serialize, EmptySetRoundTrips) {
  const std::string path = test::scratch_path("ser_empty.bin");
  save_tensors(path, {});
  EXPECT_TRUE(load_tensors(path).empty());
  std::remove(path.c_str());
}

TEST(Serialize, ModuleRoundTripRestoresForward) {
  Rng rng(2);
  FeedForward original(4, 8, 2, rng);
  const std::string path = test::scratch_path("ser_module.bin");
  save_module(path, original);

  Rng rng2(999);  // deliberately different init
  FeedForward restored(4, 8, 2, rng2);
  load_module(path, restored);

  Var x = make_leaf(Tensor::randn({3, 4}, rng, 0.7F), false);
  EXPECT_TRUE(original.forward(x)->value.allclose(restored.forward(x)->value,
                                                  1e-6F));
  std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsMissingParameter) {
  Rng rng(3);
  FeedForward small(4, 8, 2, rng);
  const std::string path = test::scratch_path("ser_missing.bin");
  save_tensors(path, {{"fc1.weight", Tensor::zeros({4, 8})}});
  EXPECT_THROW(load_module(path, small), Error);
  std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsShapeMismatch) {
  Rng rng(4);
  FeedForward model(4, 8, 2, rng);
  const std::string path = test::scratch_path("ser_shape.bin");
  std::vector<std::pair<std::string, Tensor>> entries;
  for (const auto& [name, var] : model.named_parameters()) {
    entries.emplace_back(name, Tensor::zeros({1}));  // wrong shapes
  }
  save_tensors(path, entries);
  EXPECT_THROW(load_module(path, model), Error);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsCorruptMagic) {
  const std::string path = test::scratch_path("ser_magic.bin");
  std::ofstream os(path, std::ios::binary);
  os << "NOPE additional garbage bytes";
  os.close();
  EXPECT_THROW(load_tensors(path), Error);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsTruncatedFile) {
  Rng rng(5);
  const std::string path = test::scratch_path("ser_trunc.bin");
  save_tensors(path, {{"w", Tensor::randn({64}, rng)}});
  // Truncate mid-tensor.
  std::filesystem::resize_file(path, 40);
  EXPECT_THROW(load_tensors(path), Error);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_tensors(test::scratch_path("no_such_file.bin")), Error);
}

// ------------------------------------------------ corruption fuzzing ------
// The loader's robustness contract: NO byte-level corruption may reach
// undefined behavior — every malformed input either throws deepbat::Error
// or (for flips the format cannot detect; there is no payload checksum)
// loads into a well-formed entry list. The ASan/UBSan stages in
// scripts/check.sh run these tests under instrumentation.

namespace {

std::string read_raw(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

TEST(SerializeFuzz, EveryTruncationPrefixThrowsTypedError) {
  Rng rng(11);
  const std::string path = test::scratch_path("ser_fuzz_trunc.bin");
  save_tensors(path, {{"a.weight", Tensor::randn({4, 6}, rng)},
                      {"b.bias", Tensor::randn({6}, rng)}});
  const std::string raw = read_raw(path);
  ASSERT_GT(raw.size(), 16u);
  const std::string cut = test::scratch_path("ser_fuzz_trunc_cut.bin");
  for (std::size_t len = 0; len < raw.size(); ++len) {
    write_raw(cut, raw.substr(0, len));
    EXPECT_THROW(load_tensors(cut), Error) << "prefix length " << len;
  }
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

TEST(SerializeFuzz, RandomBitFlipsNeverReachUndefinedBehavior) {
  Rng rng(22);
  const std::string path = test::scratch_path("ser_fuzz_flip.bin");
  save_tensors(path, {{"w", Tensor::randn({8, 8}, rng)},
                      {"v", Tensor::randn({16}, rng)}});
  const std::string raw = read_raw(path);
  const std::string flip = test::scratch_path("ser_fuzz_flip_bad.bin");
  Rng fuzz(333);
  for (int trial = 0; trial < 256; ++trial) {
    std::string bad = raw;
    const std::size_t byte = fuzz.next_u64() % bad.size();
    bad[byte] = static_cast<char>(bad[byte] ^ (1 << (fuzz.next_u64() % 8)));
    write_raw(flip, bad);
    try {
      // Undetectable flips (raw float payload bytes) load fine; every
      // structural flip must surface as the typed error, never a crash,
      // hang, or oversized allocation.
      const auto entries = load_tensors(flip);
      for (const auto& [name, tensor] : entries) {
        EXPECT_LE(name.size(), 4096u);
        EXPECT_LE(tensor.numel(), std::int64_t{1} << 32);
      }
    } catch (const Error&) {
      // typed rejection is the other legal outcome
    }
  }
  std::remove(path.c_str());
  std::remove(flip.c_str());
}

TEST(SerializeFuzz, RejectsDimensionOverflowBeforeAllocating) {
  // Hand-craft a header whose dims multiply past the element-count cap: the
  // loader must throw BEFORE sizing a Tensor from the product.
  const auto craft = [](std::int64_t d0, std::int64_t d1, std::int64_t d2,
                        std::int64_t d3) {
    std::string bytes = "DBAT";
    const auto append_pod = [&bytes](const auto& v) {
      bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    append_pod(std::uint32_t{1});  // version
    append_pod(std::uint64_t{1});  // one entry
    append_pod(std::uint32_t{1});  // name length
    bytes.push_back('w');
    append_pod(std::uint32_t{4});  // rank
    append_pod(d0);
    append_pod(d1);
    append_pod(d2);
    append_pod(d3);
    return bytes;
  };
  const std::string path = test::scratch_path("ser_fuzz_dims.bin");
  const std::int64_t big = std::int64_t{1} << 20;
  write_raw(path, craft(big, big, big, big));  // 2^80 elements
  EXPECT_THROW(load_tensors(path), Error);
  write_raw(path, craft(2, 3, -4, 5));  // negative dimension
  EXPECT_THROW(load_tensors(path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace deepbat::nn
