// Adversarial parser corpus: every file under tests/corpus is malformed in
// a specific way and must be rejected with a typed kInvalidInput — never an
// abort, a crash, or a silent success. The corpus is the regression net for
// the parser-hardening work (line-numbered errors, strict numeric parsing,
// validity checks before the aborting builders).

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bayes/io.h"
#include "gtest/gtest.h"
#include "logic/cnf.h"
#include "nnf/io.h"
#include "sdd/io.h"
#include "sdd/sdd.h"
#include "vtree/vtree.h"

namespace tbc {
namespace {

std::string ReadCorpusFile(const std::string& name) {
  const std::string path = std::string(TBC_CORPUS_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing corpus file " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(MalformedInput, CnfCorpusRejected) {
  const std::vector<std::string> files = {
      "cnf_bad_header.cnf",    "cnf_bad_token.cnf",
      "cnf_huge_var_count.cnf", "cnf_missing_header.cnf",
      "cnf_int_min_literal.cnf",
  };
  for (const std::string& name : files) {
    auto r = Cnf::ParseDimacs(ReadCorpusFile(name));
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.error_code(), StatusCode::kInvalidInput) << name;
    EXPECT_FALSE(r.status().message().empty()) << name;
  }
}

TEST(MalformedInput, NnfCorpusRejected) {
  const std::vector<std::string> files = {
      "nnf_zero_literal.nnf", "nnf_bad_literal.nnf",   "nnf_bad_arity.nnf",
      "nnf_missing_header.nnf", "nnf_bad_count.nnf",   "nnf_forward_ref.nnf",
  };
  for (const std::string& name : files) {
    NnfManager mgr;
    auto r = ReadNnf(mgr, ReadCorpusFile(name));
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.error_code(), StatusCode::kInvalidInput) << name;
  }
}

TEST(MalformedInput, BayesNetCorpusRejected) {
  const std::vector<std::string> files = {
      "bn_bad_cardinality.bn",   "bn_bad_probability.bn",
      "bn_row_not_normalized.bn", "bn_parent_after_child.bn",
      "bn_var_without_cpt.bn",   "bn_cpt_size_mismatch.bn",
  };
  for (const std::string& name : files) {
    auto r = ParseNetwork(ReadCorpusFile(name));
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.error_code(), StatusCode::kInvalidInput) << name;
  }
}

TEST(MalformedInput, SddCorpusRejected) {
  const std::vector<std::string> files = {
      "sdd_bad_literal_var.sdd", "sdd_empty_partition.sdd",
      "sdd_nonexhaustive_primes.sdd", "sdd_forward_ref.sdd",
      "sdd_bad_node_id.sdd",
  };
  for (const std::string& name : files) {
    SddManager mgr(Vtree::Balanced({0, 1, 2}));
    auto r = ReadSdd(mgr, ReadCorpusFile(name));
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.error_code(), StatusCode::kInvalidInput) << name;
  }
}

// Line numbers make malformed-file reports actionable.
TEST(MalformedInput, ErrorsCarryLineNumbers) {
  auto cnf = Cnf::ParseDimacs("p cnf 2 1\n1 x 0\n");
  ASSERT_FALSE(cnf.ok());
  EXPECT_NE(cnf.status().message().find("line 2"), std::string::npos)
      << cnf.status().message();

  auto net = ParseNetwork("net 1\nvar a 2 0\ncpt 0 0.9 0.9\n");
  ASSERT_FALSE(net.ok());
  EXPECT_NE(net.status().message().find("line 3"), std::string::npos)
      << net.status().message();

  NnfManager mgr;
  auto nnf = ReadNnf(mgr, "nnf 1 0 1\nL abc\n");
  ASSERT_FALSE(nnf.ok());
  EXPECT_NE(nnf.status().message().find("line 2"), std::string::npos)
      << nnf.status().message();

  auto vtree = Vtree::Parse("vtree 2\nL 0 1\nI 1 0 0\n");
  ASSERT_FALSE(vtree.ok());
  EXPECT_NE(vtree.status().message().find("line 3"), std::string::npos)
      << vtree.status().message();
}

// Well-formed files must still parse after the hardening.
TEST(MalformedInput, WellFormedStillAccepted) {
  auto cnf = Cnf::ParseDimacs("c comment\np cnf 2 2\n1 2 0\n-1 -2 0\n");
  ASSERT_TRUE(cnf.ok()) << cnf.status().message();
  EXPECT_EQ(cnf->num_vars(), 2u);
  EXPECT_EQ(cnf->num_clauses(), 2u);

  auto net = ParseNetwork("net 1\nvar a 2 0\ncpt 0 0.3 0.7\n");
  ASSERT_TRUE(net.ok()) << net.status().message();
  EXPECT_EQ(net->num_vars(), 1u);
}

// Files written on Windows (CRLF line endings) or truncated by tools that
// drop the final newline are legitimate inputs, not attacks: every text
// parser accepts both. Regression net for the lenient-line-splitting
// behavior (tests/corpus/crlf/).
TEST(MalformedInput, CrlfAndMissingTrailingNewlineAccepted) {
  auto cnf = Cnf::ParseDimacs(ReadCorpusFile("crlf/crlf.cnf"));
  ASSERT_TRUE(cnf.ok()) << cnf.status().message();
  EXPECT_EQ(cnf->num_vars(), 3u);
  EXPECT_EQ(cnf->num_clauses(), 2u);

  auto bare = Cnf::ParseDimacs(ReadCorpusFile("crlf/no_trailing_newline.cnf"));
  ASSERT_TRUE(bare.ok()) << bare.status().message();
  EXPECT_EQ(bare->num_clauses(), 1u);  // the unterminated clause still lands

  NnfManager mgr;
  auto nnf = ReadNnf(mgr, ReadCorpusFile("crlf/crlf.nnf"));
  ASSERT_TRUE(nnf.ok()) << nnf.status().message();

  SddManager sdd(Vtree::Balanced({0, 1}));
  auto circuit = ReadSdd(sdd, ReadCorpusFile("crlf/crlf.sdd"));
  ASSERT_TRUE(circuit.ok()) << circuit.status().message();

  // The same content with Unix endings must parse to the same circuit
  // (CRLF tolerance cannot change semantics).
  std::string unix_cnf = ReadCorpusFile("crlf/crlf.cnf");
  std::string stripped;
  for (char c : unix_cnf) {
    if (c != '\r') stripped += c;
  }
  auto unix_parsed = Cnf::ParseDimacs(stripped);
  ASSERT_TRUE(unix_parsed.ok());
  EXPECT_EQ(unix_parsed->num_clauses(), cnf->num_clauses());
}

}  // namespace
}  // namespace tbc
