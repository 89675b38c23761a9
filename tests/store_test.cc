// Persistent circuit store: round-trip fidelity (bit-identical WMC across
// save/load), zero-copy mapped serving, degenerate roots, and the
// adversarial corpus — every corrupted/truncated store must be a typed
// kInvalidInput refusal, never a crash or an attacker-sized allocation.

#include "store/store.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "compiler/ddnnf_compiler.h"
#include "gtest/gtest.h"
#include "logic/cnf.h"
#include "nnf/queries.h"
#include "store/format.h"

#include "nnf_oracle.h"

namespace tbc {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing file " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// A small but non-trivial CNF whose compiled d-DNNF has sharing.
constexpr const char* kCnf =
    "p cnf 6 6\n"
    "1 2 0\n"
    "-1 3 0\n"
    "2 -3 4 0\n"
    "-4 5 0\n"
    "4 -5 -6 0\n"
    "3 6 0\n";

struct Compiled {
  NnfManager mgr;
  NnfId root;
  Cnf cnf;
};

void CompileFixture(Compiled* out) {
  auto cnf = Cnf::ParseDimacs(kCnf);
  ASSERT_TRUE(cnf.ok());
  out->cnf = std::move(cnf).value();
  DdnnfCompiler compiler;
  out->root = compiler.Compile(out->cnf, out->mgr);
}

WeightMap FixtureWeights(size_t num_vars) {
  WeightMap w(num_vars);
  for (Var v = 0; v < num_vars; ++v) {
    w.Set(Pos(v), 0.25 + 0.125 * static_cast<double>(v));
    w.Set(Neg(v), 1.0 - 0.0625 * static_cast<double>(v));
  }
  return w;
}

TEST(StoreTest, RoundTripPreservesCountAndWmcBitIdentically) {
  Compiled c;
  CompileFixture(&c);
  const size_t num_vars = c.cnf.num_vars();
  const BigUint count = ModelCount(c.mgr, c.root, num_vars);
  const WeightMap weights = FixtureWeights(num_vars);
  const double wmc = Wmc(c.mgr, c.root, weights);

  const std::string path = TempPath("roundtrip.tbc");
  StoreWriteOptions options;
  options.cnf_text = kCnf;
  options.model_count = &count;
  options.num_vars = num_vars;
  ASSERT_TRUE(WriteCircuitStore(c.mgr, c.root, path, options).ok());

  auto loaded = LoadCircuitStore(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->store->cnf_text(), kCnf);
  ASSERT_TRUE(loaded->store->has_model_count());
  EXPECT_EQ(loaded->store->model_count(), count);
  EXPECT_EQ(loaded->mgr->num_vars(), num_vars);
  EXPECT_EQ(loaded->mgr->mapped_nodes(), loaded->mgr->num_nodes());

  // Same count and bit-identical WMC over the mapped arrays.
  EXPECT_EQ(ModelCount(*loaded->mgr, loaded->root, num_vars), count);
  const double mapped_wmc = Wmc(*loaded->mgr, loaded->root, weights);
  EXPECT_EQ(mapped_wmc, wmc);  // exact: same kernel over the same DAG
}

TEST(StoreTest, MappedManagerSupportsOverlayMutation) {
  Compiled c;
  CompileFixture(&c);
  const size_t num_vars = c.cnf.num_vars();
  const std::string path = TempPath("overlay.tbc");
  StoreWriteOptions options;
  options.num_vars = num_vars;
  ASSERT_TRUE(WriteCircuitStore(c.mgr, c.root, path, options).ok());
  auto loaded = LoadCircuitStore(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  NnfManager& mapped = *loaded->mgr;

  // Smoothing and conditioning append overlay nodes past the mapped range
  // and must agree with the same operations on the owned manager.
  const NnfId smooth_owned = nnf_oracle::Smooth(c.mgr, c.root, num_vars);
  const NnfId smooth_mapped =
      nnf_oracle::Smooth(mapped, loaded->root, num_vars);
  EXPECT_GE(mapped.num_nodes(), mapped.mapped_nodes());
  EXPECT_EQ(ModelCount(mapped, smooth_mapped, num_vars),
            ModelCount(c.mgr, smooth_owned, num_vars));

  const Lit l = Pos(0);
  const NnfId cond_owned = c.mgr.Condition(c.root, l);
  const NnfId cond_mapped = mapped.Condition(loaded->root, l);
  EXPECT_EQ(ModelCount(mapped, cond_mapped, num_vars),
            ModelCount(c.mgr, cond_owned, num_vars));
}

TEST(StoreTest, DegenerateRootsRoundTrip) {
  NnfManager mgr;
  const NnfId lit = mgr.Literal(Pos(2));
  struct Case {
    NnfId root;
    uint64_t expected_count;  // over 3 variables
  };
  NnfManager scratch;  // silences unused warnings on some configs
  (void)scratch;
  const Case cases[] = {
      {mgr.False(), 0},
      {mgr.True(), 8},
      {lit, 4},
  };
  int i = 0;
  for (const Case& kase : cases) {
    const std::string path = TempPath("degenerate" + std::to_string(i++) + ".tbc");
    StoreWriteOptions options;
    options.num_vars = 3;
    ASSERT_TRUE(WriteCircuitStore(mgr, kase.root, path, options).ok());
    auto loaded = LoadCircuitStore(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_EQ(ModelCount(*loaded->mgr, loaded->root, 3),
              BigUint(kase.expected_count));
  }
}

TEST(StoreTest, WriteIsAtomicOverwrite) {
  NnfManager mgr;
  const std::string path = TempPath("overwrite.tbc");
  StoreWriteOptions options;
  options.num_vars = 1;
  ASSERT_TRUE(WriteCircuitStore(mgr, mgr.True(), path, options).ok());
  ASSERT_TRUE(WriteCircuitStore(mgr, mgr.False(), path, options).ok());
  auto loaded = LoadCircuitStore(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->root, loaded->mgr->False());
}

TEST(StoreTest, MissingFileIsUnavailableNotInvalid) {
  auto r = MappedStore::Open(TempPath("does_not_exist.tbc"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error_code(), StatusCode::kUnavailable);
}

TEST(StoreTest, RejectsRootOutOfRangeAtWrite) {
  NnfManager mgr;
  const Status st =
      WriteCircuitStore(mgr, 12345, TempPath("bad_root.tbc"), {});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidInput);
}

// ---- Adversarial inputs -------------------------------------------------

void ExpectRejected(const std::string& path, const std::string& label) {
  auto r = MappedStore::Open(path);
  ASSERT_FALSE(r.ok()) << label << " was accepted";
  EXPECT_EQ(r.error_code(), StatusCode::kInvalidInput) << label;
  EXPECT_FALSE(r.status().message().empty()) << label;
}

TEST(StoreTest, CommittedGoldenStoreLoads) {
  // valid.tbc is hand-encoded by tools/make_store_corpus.py: Or(x0, ¬x0)
  // over one variable, embedded CNF and model count. Accepting it pins the
  // on-disk format against accidental layout changes.
  const std::string path = std::string(TBC_CORPUS_DIR) + "/store/valid.tbc";
  auto loaded = LoadCircuitStore(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->store->cnf_text(), "p cnf 1 0\n");
  ASSERT_TRUE(loaded->store->has_model_count());
  EXPECT_EQ(loaded->store->model_count(), BigUint(2));
  EXPECT_EQ(ModelCount(*loaded->mgr, loaded->root, 1), BigUint(2));
}

TEST(StoreTest, CommittedCorpusRejected) {
  const std::vector<std::string> files = {
      "bad_magic.tbc",        "wrong_version.tbc",    "truncated_section.tbc",
      "flipped_checksum.tbc", "oversized_counts.tbc", "bad_child_order.tbc",
      "duplicate_constant.tbc",
  };
  for (const std::string& name : files) {
    const std::string path = std::string(TBC_CORPUS_DIR) + "/store/" + name;
    ASSERT_FALSE(ReadFileBytes(path).empty()) << path;
    ExpectRejected(path, name);
  }
}

TEST(StoreTest, EveryTruncationRejected) {
  Compiled c;
  CompileFixture(&c);
  const std::string path = TempPath("trunc_base.tbc");
  StoreWriteOptions options;
  options.cnf_text = kCnf;
  options.num_vars = c.cnf.num_vars();
  ASSERT_TRUE(WriteCircuitStore(c.mgr, c.root, path, options).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), kStoreDataOffset);

  // A sweep of prefix lengths including the interesting boundaries.
  std::vector<size_t> cuts = {0,
                              1,
                              sizeof(StoreHeader) - 1,
                              sizeof(StoreHeader),
                              kStoreDataOffset - 1,
                              kStoreDataOffset,
                              bytes.size() / 2,
                              bytes.size() - 1};
  const std::string cut_path = TempPath("trunc_cut.tbc");
  for (size_t cut : cuts) {
    WriteFileBytes(cut_path, bytes.substr(0, cut));
    ExpectRejected(cut_path, "truncation at " + std::to_string(cut));
  }
}

TEST(StoreTest, EveryBitFlipInHeaderOrPayloadRejected) {
  NnfManager mgr;
  const NnfId root = mgr.Or(mgr.Literal(Pos(0)), mgr.Literal(Neg(0)));
  const std::string path = TempPath("flip_base.tbc");
  StoreWriteOptions options;
  options.cnf_text = "p cnf 1 0\n";
  options.num_vars = 1;
  ASSERT_TRUE(WriteCircuitStore(mgr, root, path, options).ok());
  const std::string bytes = ReadFileBytes(path);

  const std::string flip_path = TempPath("flip_cut.tbc");
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x20);
    WriteFileBytes(flip_path, corrupted);
    auto r = MappedStore::Open(flip_path);
    ASSERT_FALSE(r.ok()) << "flip at byte " << pos << " was accepted";
    EXPECT_EQ(r.error_code(), StatusCode::kInvalidInput) << pos;
  }
}

TEST(StoreTest, NonCanonicalModelCountLimbsRejectedByBigUint) {
  BigUint out;
  EXPECT_FALSE(BigUint::FromLimbs({1, 0}, &out));  // leading zero limb
  EXPECT_TRUE(BigUint::FromLimbs({}, &out));
  EXPECT_EQ(out, BigUint(0));
  EXPECT_TRUE(BigUint::FromLimbs({7}, &out));
  EXPECT_EQ(out, BigUint(7));
}

}  // namespace
}  // namespace tbc
