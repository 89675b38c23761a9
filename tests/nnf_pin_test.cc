// Pins of the NNF node store's observable output: the `.nnf` bytes, node
// count, model count, the WMC/MAR/MPE answers to the bit, and every array
// of the root's GapPlan. The values were recorded before the overlay moved
// to a flat CSR store, so a change to node creation, interning, literal
// lookup, levelization or gap-plan building that moves a single id, byte
// or bit fails here. Three inputs: the banded 24-variable Bayesian
// network's WMC encoding (the circuit behind every servebench request),
// seeded random CNFs, and a store-restored (FromMapped) manager that then
// builds overlay nodes of its own, literals included.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "base/random.h"
#include "bayes/network.h"
#include "bayes/wmc_encoding.h"
#include "compiler/ddnnf_compiler.h"
#include "logic/cnf.h"
#include "nnf/io.h"
#include "nnf/nnf.h"
#include "nnf/queries.h"
#include "store/store.h"

#include "nnf_oracle.h"

namespace tbc {
namespace {

Cnf RandomCnf(size_t num_vars, size_t num_clauses, uint64_t seed) {
  Rng rng(seed);
  Cnf cnf(num_vars);
  for (size_t i = 0; i < num_clauses; ++i) {
    std::set<Var> vars;
    while (vars.size() < 3) vars.insert(static_cast<Var>(rng.Below(num_vars)));
    Clause c;
    for (Var v : vars) c.push_back(Lit(v, rng.Flip(0.5)));
    cnf.AddClause(c);
  }
  return cnf;
}

// Unnormalized weights, so the order of every multiplication shows.
WeightMap RandomWeights(size_t num_vars, uint64_t seed) {
  Rng rng(seed);
  WeightMap w(num_vars);
  for (Var v = 0; v < num_vars; ++v) {
    w.Set(Pos(v), 0.05 + 1.9 * rng.Uniform());
    w.Set(Neg(v), 0.05 + 1.9 * rng.Uniform());
  }
  return w;
}

// servebench's banded network (servebench/serve_bench.cc, BandedNetwork).
BayesianNetwork BandedNetwork() {
  Rng shape(0x5e7eb0c4ull);
  Rng params(1);
  BayesianNetwork net;
  for (size_t v = 0; v < 24; ++v) {
    const size_t window = std::min<size_t>(v, 4);
    const size_t count =
        window == 0 ? 0 : shape.Below(std::min<size_t>(window, 3) + 1);
    std::vector<BnVar> parents;
    while (parents.size() < count) {
      const BnVar p = static_cast<BnVar>(v - 1 - shape.Below(window));
      if (std::find(parents.begin(), parents.end(), p) == parents.end()) {
        parents.push_back(p);
      }
    }
    std::vector<double> cpt_true(size_t{1} << parents.size());
    for (double& x : cpt_true) x = 0.05 + 0.9 * params.Uniform();
    net.AddBinary(std::string("x").append(std::to_string(v)),
                  std::move(parents), std::move(cpt_true));
  }
  return net;
}

// FNV-1a over raw bytes.
uint64_t Fnv(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

template <typename T>
std::string Array(const char* name, const std::vector<T>& xs) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %zu %016llx\n", name, xs.size(),
                static_cast<unsigned long long>(
                    Fnv(xs.data(), xs.size() * sizeof(T))));
  return buf;
}

std::string Hex(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

// Everything observable about the circuit at `root`, one line per item.
std::string Fingerprint(NnfManager& mgr, NnfId root, size_t num_vars,
                        const WeightMap& w) {
  std::string out;
  const std::string nnf = WriteNnf(mgr, root, num_vars);
  out += "nnf " + std::to_string(nnf.size()) + " ";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx\n",
                static_cast<unsigned long long>(Fnv(nnf.data(), nnf.size())));
  out += buf;
  out += "root " + std::to_string(root) + " nodes " +
         std::to_string(mgr.num_nodes()) + " below " +
         std::to_string(mgr.NumNodesBelow(root)) + "\n";
  const BigUint count = ModelCount(mgr, root, num_vars);
  out += "count " + count.ToString() + "\n";
  out += "wmc " + Hex(Wmc(mgr, root, w)) + "\n";
  out += Array("mar", MarginalWmc(mgr, root, w));
  if (!count.IsZero()) {
    const MpeResult mpe = MaxWmc(mgr, root, w, num_vars);
    out += "mpe " + Hex(mpe.weight) + "\n";
    out += Array("mpe_assignment", std::vector<uint8_t>(mpe.assignment.begin(),
                                                        mpe.assignment.end()));
  }
  const GapPlan& plan = mgr.GapPlanCached(root);
  out += Array("order", plan.schedule.order);
  out += Array("level_begin", plan.schedule.level_begin);
  out += Array("rank", plan.schedule.rank);
  out += Array("edge_begin", plan.edge_begin);
  out += Array("gap_begin", plan.gap_begin);
  out += Array("gap_vars", plan.gap_vars);
  out += Array("root_vars", plan.root_vars);
  return out;
}

TEST(NnfPinTest, BandedBnEncoding) {
  const BayesianNetwork net = BandedNetwork();
  const WmcEncoding enc(net);
  BnInstantiation evidence(net.num_vars(), kUnobserved);
  evidence[3] = 1;
  evidence[17] = 1;
  const WeightMap w = enc.WeightsWithEvidence(evidence);
  NnfManager mgr;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(enc.cnf(), mgr);
  EXPECT_EQ(Fingerprint(mgr, root, enc.num_bool_vars(), w),
            "nnf 17567 bfdca475f94c7366\n"
            "root 1224 nodes 1225 below 905\n"
            "count 16777216\n"
            "wmc 0x1.c144912c2cc73p-2\n"
            "mar 428 5e52d1cc20e8eb0b\n"
            "mpe 0x1.b4acdc0e383adp-13\n"
            "mpe_assignment 214 da7fde7e65a1a185\n"
            "order 905 dbffda088a3eea5b\n"
            "level_begin 20 bf0e13da7d107dfd\n"
            "rank 1225 d86e98dd0017e24c\n"
            "edge_begin 906 c63ad1e2ffadf785\n"
            "gap_begin 319 cc9f372d25953b55\n"
            "gap_vars 0 cbf29ce484222325\n"
            "root_vars 4 daf1eafd91dd1334\n");
}

TEST(NnfPinTest, SeededRandomCnfs) {
  // FNV-1a of each seed's fingerprint (printed in full on a mismatch).
  const char* const kDigests[] = {"12e3cb4db20d781b", "99e6bb7dd68349ce",
                                  "1f64a97e3aa237b2", "f46f015e1a89853e",
                                  "029498040320423e", "81614d91e5a0eb6f"};
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed + 4100);
    const size_t used = 12 + rng.Below(14);
    const size_t num_vars = used + rng.Below(4);  // some never mentioned
    const Cnf base = RandomCnf(used, used * (2 + seed % 3) / 2, seed + 4200);
    Cnf cnf(num_vars);
    for (const Clause& c : base.clauses()) cnf.AddClause(c);
    NnfManager mgr;
    DdnnfCompiler compiler;
    const NnfId root = compiler.Compile(cnf, mgr);
    const std::string fp =
        Fingerprint(mgr, root, num_vars, RandomWeights(num_vars, seed + 4300));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(Fnv(fp.data(), fp.size())));
    EXPECT_EQ(std::string(buf), kDigests[seed])
        << "seed " << seed << "\n" << fp;
  }
}

// A store-restored manager answers over the mapped base, then builds an
// overlay on top of it: smoothing over a wider universe (new literals of
// variables the base never mentions, and or-gates over base nodes),
// conditioning, and a conjunction of fresh literals. Overlay interning
// dedups within the overlay only, so ids past the mapped range are part of
// the pin.
TEST(NnfPinTest, StoreRestoredManagerWithOverlay) {
  const size_t num_vars = 18;
  const Cnf cnf = RandomCnf(16, 30, 4400);
  NnfManager built;
  DdnnfCompiler compiler;
  const NnfId built_root = compiler.Compile(cnf, built);
  const std::string path = testing::TempDir() + "/nnf_pin_test.tbc";
  StoreWriteOptions options;
  options.num_vars = num_vars;
  ASSERT_TRUE(WriteCircuitStore(built, built_root, path, options).ok());
  auto restored = LoadCircuitStore(path);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  NnfManager& mgr = *restored->mgr;
  const NnfId root = restored->root;
  const WeightMap w = RandomWeights(num_vars + 2, 4500);

  std::string out = Fingerprint(mgr, root, num_vars, w);
  const NnfId a = mgr.Literal(Pos(3));
  EXPECT_EQ(mgr.Literal(Pos(3)), a);
  EXPECT_GE(a, mgr.mapped_nodes());
  const NnfId smooth = nnf_oracle::Smooth(mgr, root, num_vars + 2);
  out += Fingerprint(mgr, smooth, num_vars + 2, w);
  const NnfId conditioned = mgr.Condition(smooth, Neg(5));
  out += Fingerprint(mgr, conditioned, num_vars + 2, w);
  const NnfId conj = mgr.And({mgr.Literal(Neg(num_vars + 1)), a, conditioned,
                              mgr.Literal(Pos(num_vars + 1))});
  out += "conj " + std::to_string(conj) + "\n";
  const NnfId dec = mgr.Decision(static_cast<Var>(num_vars), conditioned, root);
  out += Fingerprint(mgr, dec, num_vars + 2, w);
  EXPECT_EQ(out,
            "nnf 1832 79ada9bf1b969537\n"
            "root 162 nodes 163 below 161\n"
            "count 3104\n"
            "wmc 0x1.2212a42b08c0bp+16\n"
            "mar 40 dde58eade99d2283\n"
            "mpe 0x1.c774bbd547bdfp+6\n"
            "mpe_assignment 18 005d902958cc7dd6\n"
            "order 161 5195859fd30b3e87\n"
            "level_begin 18 f1cb8b7d8e0c8be2\n"
            "rank 163 1370937b4afdfd1d\n"
            "edge_begin 162 4053c25875480db5\n"
            "gap_begin 99 a680824e96ef38ad\n"
            "gap_vars 80 61133294b02de69b\n"
            "root_vars 1 8a5d9580133f770b\n"
            "nnf 2665 14fc334e00bca53e\n"
            "root 401 nodes 402 below 231\n"
            "count 12416\n"
            "wmc 0x1.2212a42b08c0cp+16\n"
            "mar 40 18cbc641d5a80637\n"
            "mpe 0x1.9ff0d0497a308p+7\n"
            "mpe_assignment 20 19c8b6f58800eaf9\n"
            "order 231 c87afede275a5dcb\n"
            "level_begin 20 4218691f73adcd0c\n"
            "rank 402 cd8fcc04860332d6\n"
            "edge_begin 232 d28171d17a72df87\n"
            "gap_begin 133 b92f1b94797eb135\n"
            "gap_vars 0 cbf29ce484222325\n"
            "root_vars 1 4ba71b4a70bf6f0c\n"
            "nnf 2223 353b4e86a2914f51\n"
            "root 464 nodes 465 below 197\n"
            "count 14528\n"
            "wmc 0x1.3adbaa2e13a29p+16\n"
            "mar 40 7cb9741b40810912\n"
            "mpe 0x1.9ff0d0497a308p+7\n"
            "mpe_assignment 20 19c8b6f58800eaf9\n"
            "order 197 6b3e7217150361ab\n"
            "level_begin 18 3ddb21ee692479df\n"
            "rank 465 738dd248d468bf11\n"
            "edge_begin 198 eb5b96eb159f2717\n"
            "gap_begin 113 9dba14187f7d06f5\n"
            "gap_vars 0 cbf29ce484222325\n"
            "root_vars 1 2d2354ae6fca8eec\n"
            "conj 465\n"
            "nnf 4059 6ca6d7384ac5b8b7\n"
            "root 468 nodes 469 below 330\n"
            "count 20736\n"
            "wmc 0x1.640e4875c01f4p+16\n"
            "mar 40 44f9a119188c77b5\n"
            "mpe 0x1.9ff0d0497a308p+7\n"
            "mpe_assignment 20 19c8b6f58800eaf9\n"
            "order 330 7d8a124a442e9456\n"
            "level_begin 20 0aa85abe4b9028d6\n"
            "rank 469 b92b34db751ef154\n"
            "edge_begin 331 a7419a95adfe6547\n"
            "gap_begin 213 11e38083d31755da\n"
            "gap_vars 84 88b917b7e2a05b2c\n"
            "root_vars 1 4ba71b4a70bf6f0c\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tbc
