// Tests for the NN stack: GCN adjacency, Adam, init, serialization. The
// layers' forward and backward passes are held to the tape oracle in
// test_autograd.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>

#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/gcn.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/serialize.hpp"

namespace la = gcnrl::la;
namespace nn = gcnrl::nn;
using gcnrl::Rng;

TEST(Init, XavierBounds) {
  Rng rng(1);
  const la::Mat m = nn::xavier_uniform(30, 50, rng);
  const double a = std::sqrt(6.0 / 80.0);
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      EXPECT_LE(std::fabs(m(r, c)), a);
    }
  }
}

TEST(Gcn, NormalizedAdjacencyTwoNodeChain) {
  // A = [[0,1],[1,0]]; A+I has all degrees 2 -> A-hat = 0.5 everywhere.
  la::Mat a{{0.0, 1.0}, {1.0, 0.0}};
  const la::Mat ahat = nn::normalized_adjacency(a);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) EXPECT_NEAR(ahat(i, j), 0.5, 1e-12);
  }
}

TEST(Gcn, NormalizedAdjacencyIsSymmetric) {
  Rng rng(4);
  const int n = 7;
  la::Mat a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double v = rng.uniform() < 0.4 ? 1.0 : 0.0;
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  const la::Mat ahat = nn::normalized_adjacency(a);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) EXPECT_NEAR(ahat(i, j), ahat(j, i), 1e-12);
  }
  // Identity graph: A-hat = I.
  const la::Mat id_hat = nn::normalized_adjacency(la::Mat(n, n));
  for (int i = 0; i < n; ++i) EXPECT_NEAR(id_hat(i, i), 1.0, 1e-12);
}

TEST(Adam, MinimizesQuadratic) {
  // Minimize mean((x - target)^2) over a parameter vector.
  struct Quad : nn::Module {
    nn::Parameter p{"p", la::Mat(1, 4)};
    std::vector<nn::Parameter*> parameters() override { return {&p}; }
  } quad;
  la::Mat target{{1.0, -2.0, 0.5, 3.0}};
  nn::Adam opt(quad.parameters(), 0.05);
  for (int it = 0; it < 500; ++it) {
    opt.zero_grad();
    for (int c = 0; c < 4; ++c) {
      quad.p.grad(0, c) += 2.0 / 4.0 * (quad.p.value(0, c) - target(0, c));
    }
    opt.step();
  }
  for (int c = 0; c < 4; ++c) {
    EXPECT_NEAR(quad.p.value(0, c), target(0, c), 1e-3);
  }
}

TEST(Serialize, RoundTrip) {
  Rng rng(7);
  nn::Linear a("net.layer0", 4, 3, rng);
  nn::Linear b("net.layer1", 3, 2, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "gcnrl_weights_test.bin")
          .string();
  std::vector<nn::Parameter*> params;
  for (auto* p : a.parameters()) params.push_back(p);
  for (auto* p : b.parameters()) params.push_back(p);
  nn::save_parameters(path, params);

  Rng rng2(99);
  nn::Linear a2("net.layer0", 4, 3, rng2);
  nn::Linear b2("net.layer1", 3, 2, rng2);
  std::vector<nn::Parameter*> params2;
  for (auto* p : a2.parameters()) params2.push_back(p);
  for (auto* p : b2.parameters()) params2.push_back(p);
  const int copied = nn::load_parameters(path, params2);
  EXPECT_EQ(copied, 4);
  for (std::size_t i = 0; i < params.size(); ++i) {
    const la::Mat& src = params[i]->value;
    const la::Mat& dst = params2[i]->value;
    for (int r = 0; r < src.rows(); ++r) {
      for (int c = 0; c < src.cols(); ++c) {
        EXPECT_DOUBLE_EQ(src(r, c), dst(r, c));
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Serialize, StrictRejectsMissing) {
  Rng rng(8);
  nn::Linear a("only.a", 2, 2, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "gcnrl_weights_test2.bin")
          .string();
  nn::save_parameters(path, a.parameters());
  nn::Linear b("other.name", 2, 2, rng);
  EXPECT_THROW(nn::load_parameters(path, b.parameters(), /*strict=*/true),
               std::runtime_error);
  EXPECT_EQ(nn::load_parameters(path, b.parameters(), /*strict=*/false), 0);
  std::remove(path.c_str());
}

TEST(Serialize, CopyParametersByName) {
  Rng rng(9);
  nn::Linear a("shared", 3, 3, rng);
  nn::Linear b("shared", 3, 3, rng);
  const int copied = nn::copy_parameters(a.parameters(), b.parameters());
  EXPECT_EQ(copied, 2);
  EXPECT_DOUBLE_EQ(a.parameters()[0]->value(1, 2),
                   b.parameters()[0]->value(1, 2));
}

namespace {

std::string temp_file(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Overwrite the 4 bytes at `offset` with the little-endian u32 `v` — the
// corruption probe for the bounded-reader tests below.
void patch_u32(const std::string& path, long offset, std::uint32_t v) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&v, sizeof(v), 1, f), 1u);
  std::fclose(f);
}

std::string shape_str(const gcnrl::la::Mat& m) {
  return std::to_string(m.rows()) + "x" + std::to_string(m.cols());
}

}  // namespace

TEST(Serialize, MetadataRoundTrip) {
  Rng rng(11);
  nn::Linear a("meta.layer", 2, 3, rng);
  const std::string path = temp_file("gcnrl_serialize_meta.gcr");
  nn::save_tensors(path, nn::snapshot_parameters(a.parameters()),
                   {{"circuit", "Two-TIA"}, {"node", "65nm"}});
  const nn::TensorFile f = nn::load_tensors(path);
  ASSERT_EQ(f.meta.size(), 2u);
  EXPECT_EQ(f.meta[0].first, "circuit");
  EXPECT_EQ(f.meta[0].second, "Two-TIA");
  EXPECT_EQ(f.meta[1].first, "node");
  EXPECT_EQ(f.meta[1].second, "65nm");
  const auto params = a.parameters();
  ASSERT_EQ(f.tensors.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(f.tensors[i].name, params[i]->name);
    const la::Mat& src = params[i]->value;
    const la::Mat& got = f.tensors[i].value;
    ASSERT_TRUE(got.same_shape(src));
    for (int r = 0; r < src.rows(); ++r) {
      for (int c = 0; c < src.cols(); ++c) {
        EXPECT_EQ(src(r, c), got(r, c));  // bitwise, not approximate
      }
    }
  }
  std::remove(path.c_str());
}

// Every length field the format carries is validated against the bytes
// actually left in the file BEFORE anything is allocated, and the magic /
// version gate rejects foreign or pre-versioning files.
TEST(Serialize, RejectsCorruptHeadersAndLengthFields) {
  Rng rng(12);
  nn::Linear a("hard.layer", 4, 3, rng);  // empty meta section
  const std::string path = temp_file("gcnrl_serialize_corrupt.gcr");
  const auto fresh = [&] { nn::save_parameters(path, a.parameters()); };
  // Fixed layout with empty meta: magic@0, version@4, meta_count@8,
  // tensor count@12, first name_len@16, name bytes@20, rows/cols after.
  const long name_len = static_cast<long>(a.parameters()[0]->name.size());

  fresh();
  patch_u32(path, 0, 0xDEADBEEF);  // wrong magic
  EXPECT_THROW(nn::load_tensors(path), std::runtime_error);

  fresh();
  patch_u32(path, 4, 99);  // unknown format version
  try {
    nn::load_tensors(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }

  fresh();
  patch_u32(path, 8, 0xFFFFFFFFu);  // absurd meta count
  EXPECT_THROW(nn::load_tensors(path), std::runtime_error);

  fresh();
  patch_u32(path, 12, 0xFFFFFFFFu);  // absurd tensor count
  EXPECT_THROW(nn::load_tensors(path), std::runtime_error);

  fresh();
  patch_u32(path, 16, 0x7FFFFFFFu);  // name length beyond the file
  EXPECT_THROW(nn::load_tensors(path), std::runtime_error);

  fresh();
  patch_u32(path, 20 + name_len, 0x7FFFFFFFu);  // rows: multi-GB claim
  EXPECT_THROW(nn::load_tensors(path), std::runtime_error);

  // Truncation anywhere inside the payload is caught, not zero-filled.
  fresh();
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);
  EXPECT_THROW(nn::load_tensors(path), std::runtime_error);

  std::remove(path.c_str());
}

// A strict-mode failure names the unmatched destination AND lists what the
// file actually contains (names + shapes), so a mismatched checkpoint is
// diagnosable from the message alone.
TEST(Serialize, StrictFailureListsSourceInventory) {
  Rng rng(13);
  nn::Linear a("only.a", 2, 3, rng);
  const std::string path = temp_file("gcnrl_serialize_inventory.gcr");
  nn::save_parameters(path, a.parameters());
  nn::Linear b("other.name", 2, 3, rng);
  try {
    nn::load_parameters(path, b.parameters(), /*strict=*/true);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(b.parameters()[0]->name), std::string::npos) << msg;
    for (const auto* p : a.parameters()) {
      EXPECT_NE(msg.find(p->name + " " + shape_str(p->value)),
                std::string::npos)
          << msg;
    }
  }
  std::remove(path.c_str());
}

// Non-strict load copies exactly the name+shape-matching subset: matching
// tensors land bitwise, everything else is left untouched.
TEST(Serialize, NonStrictCopiesExactlyShapeMatchingSubset) {
  Rng rng(14);
  nn::Linear src_a("m.a", 2, 2, rng);
  nn::Linear src_b("m.b", 3, 3, rng);
  const std::string path = temp_file("gcnrl_serialize_subset.gcr");
  std::vector<nn::Parameter*> file_params;
  for (auto* p : src_a.parameters()) file_params.push_back(p);
  for (auto* p : src_b.parameters()) file_params.push_back(p);
  nn::save_parameters(path, file_params);

  Rng rng2(15);
  nn::Linear dst_a("m.a", 2, 2, rng2);   // W and bias both match
  nn::Linear dst_b("m.b", 2, 3, rng2);   // W shape differs, bias matches
  const la::Mat w_before = dst_b.parameters()[0]->value;
  std::vector<nn::Parameter*> dst;
  for (auto* p : dst_a.parameters()) dst.push_back(p);
  for (auto* p : dst_b.parameters()) dst.push_back(p);
  EXPECT_EQ(nn::load_parameters(path, dst, /*strict=*/false), 3);
  // ...and strict mode rejects the same partial match.
  EXPECT_THROW(nn::load_parameters(path, dst, /*strict=*/true),
               std::runtime_error);
  for (std::size_t i = 0; i < 2; ++i) {
    const la::Mat& want = src_a.parameters()[i]->value;
    const la::Mat& got = dst_a.parameters()[i]->value;
    for (int r = 0; r < want.rows(); ++r) {
      for (int c = 0; c < want.cols(); ++c) EXPECT_EQ(want(r, c), got(r, c));
    }
  }
  // dst_b: bias copied, mismatched W untouched.
  EXPECT_EQ(dst_b.parameters()[1]->value(0, 0),
            src_b.parameters()[1]->value(0, 0));
  for (int r = 0; r < w_before.rows(); ++r) {
    for (int c = 0; c < w_before.cols(); ++c) {
      EXPECT_EQ(dst_b.parameters()[0]->value(r, c), w_before(r, c));
    }
  }
  std::remove(path.c_str());
}
