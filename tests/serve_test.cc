// Serving-layer tests (DESIGN.md "Serving layer"): the artifact cache
// (single-flight, eviction, failed compiles, the byte-verified index), and
// the server end-to-end — typed refusals for malformed input, admission
// control, deadline propagation, and graceful drain. The wire codec lives
// in protocol_test.cc; the fault-injection matrix and the bit-identical
// soak in serve_fault_test.cc.

#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/guard.h"
#include "base/observability.h"
#include "base/random.h"
#include "base/result.h"
#include "compiler/ddnnf_compiler.h"
#include "gtest/gtest.h"
#include "logic/cnf.h"
#include "nnf/nnf.h"
#include "serve/artifact_cache.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace tbc::serve {
namespace {

constexpr const char* kSmallCnf = "p cnf 3 2\n1 2 0\n-1 3 0\n";  // 4 models

ServerOptions LoopbackOptions() {
  ServerOptions opts;
  opts.address.tcp_host = "127.0.0.1";
  opts.address.tcp_port = 0;  // ephemeral
  opts.num_workers = 2;
  return opts;
}

void WriteFileOrDie(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

ClientOptions ClientFor(const Server& server) {
  ClientOptions copts;
  copts.address.tcp_host = "127.0.0.1";
  copts.address.tcp_port = server.port();
  copts.retry.initial_backoff_ms = 1.0;
  copts.deadline_ms = 10'000.0;
  return copts;
}

// ---------------------------------------------------------------------------
// Artifact cache.

TEST(ArtifactCache, SingleFlightSharesOneCompile) {
  ArtifactCache cache(4);
  std::vector<std::shared_ptr<const Artifact>> results(8);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < results.size(); ++i) {
    threads.emplace_back([&, i] {
      Guard guard(Budget::Unlimited());
      auto a = cache.GetOrCompile(kSmallCnf, guard, nullptr);
      ASSERT_TRUE(a.ok());
      results[i] = *a;
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& a : results) {
    EXPECT_EQ(a.get(), results[0].get());  // one shared artifact
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(results[0]->count.ToString(), "4");
}

TEST(ArtifactCache, EvictsLeastRecentlyUsedAtCapacity) {
  ArtifactCache cache(2);
  Guard guard(Budget::Unlimited());
  const std::string cnfs[] = {"p cnf 1 0\n", "p cnf 2 0\n", "p cnf 3 0\n"};
  for (const auto& text : cnfs) {
    ASSERT_TRUE(cache.GetOrCompile(text, guard, nullptr).ok());
    EXPECT_LE(cache.size(), 2u);
  }
  // The first CNF was evicted: re-requesting it is a miss.
  bool hit = true;
  ASSERT_TRUE(cache.GetOrCompile(cnfs[0], guard, &hit).ok());
  EXPECT_FALSE(hit);
  // The most recent one is still cached.
  ASSERT_TRUE(cache.GetOrCompile(cnfs[2], guard, &hit).ok());
  EXPECT_TRUE(hit);
}

TEST(ArtifactCache, LookupPeeksWithoutCompiling) {
  ArtifactCache cache(2);
  // Miss: Lookup never compiles, so an un-requested CNF stays absent.
  EXPECT_EQ(cache.Lookup(kSmallCnf), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  Guard guard(Budget::Unlimited());
  auto built = cache.GetOrCompile(kSmallCnf, guard, nullptr);
  ASSERT_TRUE(built.ok());
  // Hit: same shared artifact, still exactly one cached entry.
  EXPECT_EQ(cache.Lookup(kSmallCnf).get(), built->get());
  EXPECT_EQ(cache.size(), 1u);
  // Lookup refreshes recency: after touching kSmallCnf, inserting two more
  // CNFs must evict the other entry first.
  ASSERT_TRUE(cache.GetOrCompile("p cnf 1 0\n", guard, nullptr).ok());
  EXPECT_NE(cache.Lookup(kSmallCnf), nullptr);
  ASSERT_TRUE(cache.GetOrCompile("p cnf 2 0\n", guard, nullptr).ok());
  EXPECT_NE(cache.Lookup(kSmallCnf), nullptr);  // survived both evictions
  EXPECT_EQ(cache.Lookup("p cnf 1 0\n"), nullptr);  // LRU victim
}

TEST(ArtifactCache, FailedCompilesAreNotCached) {
  ArtifactCache cache(4);
  Guard guard(Budget::Unlimited());
  auto bad = cache.GetOrCompile("not a cnf at all", guard, nullptr);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidInput);
  EXPECT_EQ(cache.size(), 0u);
  // A valid CNF under the same cache still works afterwards.
  EXPECT_TRUE(cache.GetOrCompile(kSmallCnf, guard, nullptr).ok());
}

// ---------------------------------------------------------------------------
// Artifact index: slots are bucketed by a 64-bit in-memory fingerprint and
// matched on their exact bytes. The fingerprint-taking overloads let these
// tests force distinct CNFs into one bucket.

// A random 3-CNF at the phase transition (250 vars, ratio 4.26): its
// unbounded compile runs far longer than any test, so it stays in flight
// until cancelled.
std::string HardCnf() {
  Rng rng(11);
  std::string cnf = "p cnf 250 1065\n";
  for (int i = 0; i < 1065; ++i) {
    for (int k = 0; k < 3; ++k) {
      const int v = 1 + static_cast<int>(rng.Below(250));
      cnf += std::to_string(rng.Flip(0.5) ? v : -v) + " ";
    }
    cnf += "0\n";
  }
  return cnf;
}

TEST(ArtifactCache, DistinctCnfsOnOneFingerprintNeverAlias) {
  ArtifactCache cache(4);
  Guard guard(Budget::Unlimited());
  constexpr uint64_t kShared = 42;
  const std::pair<std::string, std::string> cnfs[] = {
      {kSmallCnf, "4"}, {"p cnf 1 0\n", "2"}, {"p cnf 2 1\n1 2 0\n", "3"}};
  std::vector<std::shared_ptr<const Artifact>> built;
  for (const auto& [text, count] : cnfs) {
    bool hit = true;
    auto a = cache.GetOrCompile(text, kShared, guard, &hit);
    ASSERT_TRUE(a.ok()) << a.status().message();
    EXPECT_FALSE(hit) << text;
    EXPECT_EQ((*a)->cnf_text, text);
    EXPECT_EQ((*a)->count.ToString(), count);
    built.push_back(*a);
  }
  EXPECT_EQ(cache.compiles(), 3u);
  EXPECT_EQ(cache.size(), 3u);
  // Every later probe of the shared bucket finds its own CNF's artifact.
  for (size_t i = 0; i < built.size(); ++i) {
    bool hit = false;
    auto a = cache.GetOrCompile(cnfs[i].first, kShared, guard, &hit);
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(hit);
    EXPECT_EQ(a->get(), built[i].get());
    EXPECT_EQ(cache.Lookup(cnfs[i].first, kShared).get(), built[i].get());
  }
  EXPECT_EQ(cache.Lookup("p cnf 5 0\n", kShared), nullptr);
  EXPECT_EQ(cache.compiles(), 3u);
}

TEST(ArtifactCache, CnfsOneByteApartStaySeparate) {
  // (1 v 2)(-1 v 3) has 4 models; dropping the '-' gives (1 v 2)(1 v 3),
  // which has 5.
  const std::string a = "p cnf 3 2\n1 2 0\n-1 3 0\n";
  const std::string b = "p cnf 3 2\n1 2 0\n 1 3 0\n";
  ASSERT_EQ(a.size(), b.size());
  for (bool forced : {false, true}) {
    ArtifactCache cache(4);
    Guard guard(Budget::Unlimited());
    const auto get = [&](const std::string& text) {
      return forced ? cache.GetOrCompile(text, 7, guard, nullptr)
                    : cache.GetOrCompile(text, guard, nullptr);
    };
    auto first = get(a);
    auto second = get(b);
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_NE(first->get(), second->get());
    EXPECT_NE((*first)->key, (*second)->key);
    EXPECT_EQ((*first)->count.ToString(), "4");
    EXPECT_EQ((*second)->count.ToString(), "5");
    EXPECT_EQ(get(a)->get(), first->get());
    EXPECT_EQ(get(b)->get(), second->get());
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.compiles(), 2u);
  }
}

TEST(ArtifactCache, SingleFlightJoinChecksBytesBeforeWaiting) {
  ArtifactCache cache(4);
  constexpr uint64_t kShared = 9;
  Budget owner_budget;
  owner_budget.timeout_ms = 60'000;  // bounds the test if cancel is lost
  Guard owner_guard(owner_budget);
  std::atomic<bool> owner_done{false};
  Status owner_status;
  std::thread owner([&] {
    auto a = cache.GetOrCompile(HardCnf(), kShared, owner_guard, nullptr);
    owner_status = a.status();
    owner_done = true;
  });
  // The owner's slot is filed before its compile is counted.
  while (cache.compiles() == 0) std::this_thread::yield();

  // A different CNF on the same fingerprint must not join that compile:
  // it compiles its own instead of waiting on someone else's bytes.
  Budget budget;
  budget.timeout_ms = 2'000;  // what a wrongful join would wait out
  Guard guard(budget);
  bool hit = true;
  auto small = cache.GetOrCompile(kSmallCnf, kShared, guard, &hit);
  ASSERT_TRUE(small.ok()) << small.status().message();
  EXPECT_FALSE(hit);
  EXPECT_EQ((*small)->count.ToString(), "4");
  EXPECT_FALSE(owner_done.load());  // answered while the other was in flight
  EXPECT_EQ(cache.compiles(), 2u);

  owner_guard.Cancel();
  owner.join();
  EXPECT_FALSE(owner_status.ok());
  EXPECT_EQ(cache.size(), 1u);  // the cancelled compile is not cached
  EXPECT_EQ(cache.Lookup(kSmallCnf, kShared).get(), small->get());
}

TEST(ArtifactCache, ArtifactKeysAreTheContentHashOfTheBytes) {
  // Pinned values of the 128-bit content key: the `artifact` response
  // field and the store's file names, so they must never drift.
  ArtifactCache cache(4);
  Guard guard(Budget::Unlimited());
  auto small = cache.GetOrCompile(kSmallCnf, guard, nullptr);
  auto empty = cache.GetOrCompile("p cnf 1 0\n", guard, nullptr);
  ASSERT_TRUE(small.ok() && empty.ok());
  EXPECT_EQ((*small)->key, "622d5280d39182b43b8fa5de2219a002");
  EXPECT_EQ((*empty)->key, "e13cfea723f0a005a22bc9c7c0a612e4");
}

TEST(ArtifactCache, CountsExactlyOneCompilePerMiss) {
  ArtifactCache cache(1);
  Guard guard(Budget::Unlimited());
  ASSERT_TRUE(cache.GetOrCompile(kSmallCnf, guard, nullptr).ok());
  EXPECT_EQ(cache.compiles(), 1u);
  ASSERT_TRUE(cache.GetOrCompile(kSmallCnf, guard, nullptr).ok());  // hit
  EXPECT_NE(cache.Lookup(kSmallCnf), nullptr);                      // peek
  EXPECT_EQ(cache.compiles(), 1u);
  EXPECT_FALSE(cache.GetOrCompile("not a cnf", guard, nullptr).ok());
  EXPECT_EQ(cache.compiles(), 2u);  // a failed compile was still a miss
  ASSERT_TRUE(cache.GetOrCompile("p cnf 1 0\n", guard, nullptr).ok());
  EXPECT_EQ(cache.compiles(), 3u);
  ASSERT_TRUE(cache.GetOrCompile(kSmallCnf, guard, nullptr).ok());  // evicted
  EXPECT_EQ(cache.compiles(), 4u);
}

// ---------------------------------------------------------------------------
// Server end-to-end.

TEST(Server, AnswersQueriesAndReusesArtifacts) {
  auto server = Server::Start(LoopbackOptions());
  ASSERT_TRUE(server.ok()) << server.status().message();
  Client client(ClientFor(**server));

  Request ping;
  ping.op = Op::kPing;
  auto pong = client.Call(ping);
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->ok());

  Request count;
  count.op = Op::kCount;
  count.cnf_text = kSmallCnf;
  auto first = client.Call(count);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->ok()) << first->message;
  EXPECT_EQ(first->count, "4");
  EXPECT_FALSE(first->cache_hit);

  auto second = client.Call(count);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->artifact, first->artifact);
  EXPECT_EQ((*server)->cached_artifacts(), 1u);

  Request wmc;
  wmc.op = Op::kWmc;
  wmc.cnf_text = kSmallCnf;
  wmc.weights = {{1, 0.5}, {-1, 0.5}};
  auto w = client.Call(wmc);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w->ok()) << w->message;
  EXPECT_DOUBLE_EQ(w->wmc, 2.0);
  EXPECT_TRUE(w->cache_hit);  // same artifact serves every query op
}

// The tentpole's restart contract (DESIGN.md "Persistent circuit store"):
// a server with a store directory spills every compiled artifact, and a
// *fresh* server pointed at the same directory answers previously
// compiled CNFs from mmap — zero cache misses, zero compiles, and a WMC
// bit-identical to the first process's answer.
TEST(Server, WarmStartsFromStoreWithZeroCompileActivity) {
  const std::string store_dir = testing::TempDir() + "warm_start_store_" +
                                std::to_string(::getpid());
  std::filesystem::create_directories(store_dir);

  ServerOptions opts = LoopbackOptions();
  opts.store_dir = store_dir;

  Request count;
  count.op = Op::kCount;
  count.cnf_text = kSmallCnf;
  Request wmc;
  wmc.op = Op::kWmc;
  wmc.cnf_text = kSmallCnf;
  wmc.weights = {{1, 0.25}, {-1, 0.75}, {2, 0.5}, {-2, 0.5}};

  double first_wmc = 0.0;
  {
    auto server = Server::Start(opts);
    ASSERT_TRUE(server.ok()) << server.status().message();
    Client client(ClientFor(**server));
    auto c = client.Call(count);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c->ok()) << c->message;
    EXPECT_EQ(c->count, "4");
    auto w = client.Call(wmc);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->ok()) << w->message;
    first_wmc = w->wmc;
    (*server)->Shutdown();
  }
  // The compile was spilled as <store_dir>/<content-key>.tbc.
  size_t spilled = 0;
  for (const auto& e : std::filesystem::directory_iterator(store_dir)) {
    if (e.path().extension() == ".tbc") ++spilled;
  }
  ASSERT_EQ(spilled, 1u);

  const uint64_t misses_before =
      Observability::Global().CounterValue("serve.cache.misses");
  const uint64_t restores_before =
      Observability::Global().CounterValue("serve.store.restores");
  const uint64_t hits_before =
      Observability::Global().CounterValue("serve.store.hits");

  // "Restart": a brand-new server process image over the same directory.
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().message();
  EXPECT_EQ((*server)->cached_artifacts(), 1u);  // warm before accept
  const auto restored = (*server)->LookupArtifact(kSmallCnf);
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(restored->from_store);
  EXPECT_EQ(Observability::Global().CounterValue("serve.store.restores"),
            restores_before + 1);

  Client client(ClientFor(**server));
  auto c = client.Call(count);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->ok()) << c->message;
  EXPECT_EQ(c->count, "4");
  EXPECT_TRUE(c->cache_hit);
  auto w = client.Call(wmc);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w->ok()) << w->message;
  EXPECT_EQ(w->wmc, first_wmc);  // bit-identical, not just approximately

  // Zero compile activity after restart: the cache never compiled, and
  // both queries were served off the restored (mapped) artifact.
  EXPECT_EQ((*server)->compiles(), 0u);
  EXPECT_EQ((*server)->LookupArtifact(kSmallCnf), restored);
  EXPECT_EQ(Observability::Global().CounterValue("serve.cache.misses"),
            misses_before);
  EXPECT_EQ(Observability::Global().CounterValue("serve.store.hits"),
            hits_before + 2);
  (*server)->Shutdown();
  std::filesystem::remove_all(store_dir);
}

// A compile reply reports the artifact's circuit size, which the warm-up
// reads off the root's gap plan. It must equal the size walks of a fresh
// compile of the same CNF, and again after a store warm-start restart,
// where the plan is built over the mapped manager.
TEST(Server, CompileReplySizesMatchFreshCompile) {
  // Twelve variables, two unmentioned, and clauses that share structure,
  // so the circuit has gap edges and shared nodes.
  const std::string cnf_text =
      "p cnf 12 9\n1 2 -3 0\n-1 4 0\n3 -4 5 0\n-5 6 0\n6 7 -8 0\n"
      "-2 -7 0\n8 9 0\n-9 10 -1 0\n2 -10 0\n";
  auto parsed = Cnf::ParseDimacs(cnf_text);
  ASSERT_TRUE(parsed.ok());
  NnfManager fresh;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(*parsed, fresh);
  const uint64_t nodes = fresh.NumNodesBelow(root);
  const uint64_t edges = fresh.CircuitSize(root);
  ASSERT_GT(edges, nodes);

  const std::string store_dir = testing::TempDir() + "sizes_store_" +
                                std::to_string(::getpid());
  std::filesystem::create_directories(store_dir);
  ServerOptions opts = LoopbackOptions();
  opts.store_dir = store_dir;
  Request compile;
  compile.op = Op::kCompile;
  compile.cnf_text = cnf_text;
  for (const bool restarted : {false, true}) {
    auto server = Server::Start(opts);
    ASSERT_TRUE(server.ok()) << server.status().message();
    if (restarted) {
      const auto restored = (*server)->LookupArtifact(cnf_text);
      ASSERT_NE(restored, nullptr);
      EXPECT_TRUE(restored->from_store);
    }
    Client client(ClientFor(**server));
    auto reply = client.Call(compile);
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply->ok()) << reply->message;
    EXPECT_EQ(reply->cache_hit, restarted);
    EXPECT_EQ(reply->circuit_nodes, nodes) << "restarted " << restarted;
    EXPECT_EQ(reply->circuit_edges, edges) << "restarted " << restarted;
    (*server)->Shutdown();
  }
  std::filesystem::remove_all(store_dir);
}

// Queries on a warmed artifact are pure reads of its shared manager (the
// contract that makes concurrent queries race-free): the compile already
// built the gap plan every kernel reads, and no op may intern a node or
// widen the variable range. The CNF leaves variable 4 unmentioned, so
// every query's answer has to cover it without the circuit mentioning it.
TEST(Server, QueriesDoNotWriteWarmedArtifact) {
  constexpr const char* kCnf = "p cnf 4 2\n1 2 0\n-1 3 0\n";
  auto server = Server::Start(LoopbackOptions());
  ASSERT_TRUE(server.ok()) << server.status().message();
  Client client(ClientFor(**server));

  Request compile;
  compile.op = Op::kCompile;
  compile.cnf_text = kCnf;
  auto compiled = client.Call(compile);
  ASSERT_TRUE(compiled.ok());
  ASSERT_TRUE(compiled->ok()) << compiled->message;
  const auto art = (*server)->LookupArtifact(kCnf);
  ASSERT_NE(art, nullptr);
  const size_t nodes = art->mgr->num_nodes();
  const size_t vars = art->mgr->num_vars();
  EXPECT_EQ(vars, 3u);  // the circuit mentions variables 1-3 only

  for (Op op : {Op::kWmc, Op::kMar, Op::kMpe, Op::kWmc, Op::kMar, Op::kMpe}) {
    Request req;
    req.op = op;
    req.cnf_text = kCnf;
    req.weights = {{1, 0.25}, {-1, 0.75}, {3, 0.0}, {4, 0.5}, {-4, 2.0}};
    auto resp = client.Call(req);
    ASSERT_TRUE(resp.ok());
    ASSERT_TRUE(resp->ok()) << OpName(op) << ": " << resp->message;
    EXPECT_TRUE(resp->cache_hit);
  }
  EXPECT_EQ(art->mgr->num_nodes(), nodes);
  EXPECT_EQ(art->mgr->num_vars(), vars);
  EXPECT_EQ((*server)->compiles(), 1u);
  (*server)->Shutdown();
}

TEST(Server, WarmStartSkipsCorruptAndForeignStoreFiles) {
  const std::string store_dir = testing::TempDir() + "warm_start_bad_" +
                                std::to_string(::getpid());
  std::filesystem::create_directories(store_dir);
  {
    // One genuine spill...
    ServerOptions opts = LoopbackOptions();
    opts.store_dir = store_dir;
    auto server = Server::Start(opts);
    ASSERT_TRUE(server.ok()) << server.status().message();
    Client client(ClientFor(**server));
    Request count;
    count.op = Op::kCount;
    count.cnf_text = kSmallCnf;
    auto c = client.Call(count);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c->ok()) << c->message;
    (*server)->Shutdown();
  }
  // ...plus garbage, a truncated copy, and a renamed (key-mismatched) copy.
  std::string real;
  for (const auto& e : std::filesystem::directory_iterator(store_dir)) {
    if (e.path().extension() == ".tbc") real = e.path().string();
  }
  ASSERT_FALSE(real.empty());
  WriteFileOrDie(store_dir + "/" + std::string(32, '0') + ".tbc",
                 "not a store at all");
  std::string bytes = ReadFileOrDie(real);
  WriteFileOrDie(store_dir + "/" + std::string(32, '1') + ".tbc",
                 bytes.substr(0, bytes.size() / 2));
  WriteFileOrDie(store_dir + "/" + std::string(32, '2') + ".tbc", bytes);

  ServerOptions opts = LoopbackOptions();
  opts.store_dir = store_dir;
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().message();
  // Only the genuine spill survives validation; the impostors are skipped
  // (counted), never served.
  EXPECT_EQ((*server)->cached_artifacts(), 1u);
  (*server)->Shutdown();
  std::filesystem::remove_all(store_dir);
}

TEST(Server, ForecastAdmissionRefusesHighWidthWithoutCompiling) {
  ServerOptions opts = LoopbackOptions();
  opts.max_forecast_width = 10;
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().message();
  Client client(ClientFor(**server));

  // A single 30-literal clause makes the primal graph a 30-clique:
  // predicted induced width 29, far over the cap of 10.
  std::string wide = "p cnf 30 1\n";
  for (int v = 1; v <= 30; ++v) wide += std::to_string(v) + " ";
  wide += "0\n";

  const uint64_t misses_before =
      Observability::Global().CounterValue("serve.cache.misses");
  const uint64_t refused_before =
      Observability::Global().CounterValue("serve.requests.forecast_refused");

  Request req;
  req.op = Op::kCount;
  req.cnf_text = wide;
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok()) << resp.status().message();
  EXPECT_EQ(resp->status, StatusCode::kRefusedByForecast);
  EXPECT_FALSE(resp->message.empty());
  EXPECT_TRUE(IsRefusal(resp->status));

  // The refusal happened before any compile: nothing was compiled or
  // cached, the cache never even saw a miss, and the typed counter ticked.
  EXPECT_EQ((*server)->compiles(), 0u);
  EXPECT_EQ((*server)->cached_artifacts(), 0u);
  EXPECT_EQ(Observability::Global().CounterValue("serve.cache.misses"),
            misses_before);
  EXPECT_EQ(
      Observability::Global().CounterValue("serve.requests.forecast_refused"),
      refused_before + 1);

  // Retrying the identical request is deterministic: refused again.
  auto again = client.Call(req);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->status, StatusCode::kRefusedByForecast);
  EXPECT_EQ((*server)->compiles(), 0u);

  // Low-width work on the same server is admitted and answered.
  Request small;
  small.op = Op::kCount;
  small.cnf_text = kSmallCnf;
  auto ok = client.Call(small);
  ASSERT_TRUE(ok.ok());
  ASSERT_TRUE(ok->ok()) << ok->message;
  EXPECT_EQ(ok->count, "4");
  EXPECT_EQ((*server)->compiles(), 1u);

  // And once an artifact is cached, repeat requests bypass the forecast
  // path entirely (cache_hit short-circuit).
  auto cached = client.Call(small);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->cache_hit);
  EXPECT_EQ((*server)->compiles(), 1u);
  (*server)->Shutdown();
}

// With admission control on, a repeat request is answered off the
// forecast's cache peek, not GetOrCompile. It is still a cache hit, and a
// hit on a restored artifact is still a store hit: both counters tick
// once per answered repeat, exactly as they do with the forecast off.
TEST(Server, ForecastAdmissionCountsCacheAndStoreHits) {
  const std::string store_dir = testing::TempDir() + "forecast_hits_store_" +
                                std::to_string(::getpid());
  std::filesystem::create_directories(store_dir);
  ServerOptions opts = LoopbackOptions();
  opts.max_forecast_width = 10;
  opts.store_dir = store_dir;
  Request count;
  count.op = Op::kCount;
  count.cnf_text = kSmallCnf;

  auto hits = [] {
    return Observability::Global().CounterValue("serve.cache.hits");
  };
  auto store_hits = [] {
    return Observability::Global().CounterValue("serve.store.hits");
  };
  {
    auto server = Server::Start(opts);
    ASSERT_TRUE(server.ok()) << server.status().message();
    Client client(ClientFor(**server));
    auto first = client.Call(count);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first->ok()) << first->message;
    EXPECT_FALSE(first->cache_hit);
    const uint64_t hits_before = hits();
    const uint64_t store_hits_before = store_hits();
    for (int i = 0; i < 2; ++i) {
      auto again = client.Call(count);
      ASSERT_TRUE(again.ok());
      ASSERT_TRUE(again->ok()) << again->message;
      EXPECT_TRUE(again->cache_hit);
    }
    EXPECT_EQ(hits(), hits_before + 2);
    EXPECT_EQ(store_hits(), store_hits_before);  // compiled, not restored
    (*server)->Shutdown();
  }

  // Restarted over the same directory: the artifact comes from the store.
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().message();
  Client client(ClientFor(**server));
  const uint64_t hits_before = hits();
  const uint64_t store_hits_before = store_hits();
  auto restored = client.Call(count);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(restored->ok()) << restored->message;
  EXPECT_TRUE(restored->cache_hit);
  EXPECT_EQ((*server)->compiles(), 0u);
  EXPECT_EQ(hits(), hits_before + 1);
  EXPECT_EQ(store_hits(), store_hits_before + 1);
  (*server)->Shutdown();
  std::filesystem::remove_all(store_dir);
}

TEST(Server, ForecastAdmissionAdmitsWhenAnalysisOverBudget) {
  ServerOptions opts = LoopbackOptions();
  opts.max_forecast_width = 10;
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().message();
  Client client(ClientFor(**server));

  // A single clause this wide makes even *building* the primal graph blow
  // the admission work budget: the bounded forecast degrades to the
  // linear passes, yields no width bracket, and the request must be
  // admitted — the Guard, not the forecast, bounds whatever it costs.
  // (The compile itself is trivial: one clause.) Before the analysis was
  // bounded, this request's min-fill/width simulation on a 5000-clique
  // would pin a worker far longer than the compile it was vetting.
  const size_t n = 5000;
  std::string wide = "p cnf " + std::to_string(n) + " 1\n";
  for (size_t v = 1; v <= n; ++v) wide += std::to_string(v) + " ";
  wide += "0\n";

  Request req;
  req.op = Op::kCount;
  req.cnf_text = wide;
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok()) << resp.status().message();
  ASSERT_TRUE(resp->ok()) << resp->message;  // admitted and answered
  EXPECT_FALSE(resp->cache_hit);
  EXPECT_EQ((*server)->cached_artifacts(), 1u);
  EXPECT_FALSE(resp->count.empty());  // 2^5000 - 1 models
  EXPECT_NE(resp->count, "0");
  (*server)->Shutdown();
}

TEST(Server, MalformedRequestsGetTypedRefusalsNotCrashes) {
  auto server = Server::Start(LoopbackOptions());
  ASSERT_TRUE(server.ok());
  Client client(ClientFor(**server));

  // Bad CNF: typed kInvalidInput from the hardened parser.
  Request bad;
  bad.op = Op::kCount;
  bad.cnf_text = "p cnf -3 oops\n";
  auto resp = client.Call(bad);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, StatusCode::kInvalidInput);

  // Weight literal out of range for the CNF.
  Request wmc;
  wmc.op = Op::kWmc;
  wmc.cnf_text = kSmallCnf;
  wmc.weights = {{99, 0.5}};
  resp = client.Call(wmc);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, StatusCode::kInvalidInput);

  // MPE of an unsatisfiable CNF is a typed error, not UB.
  Request mpe;
  mpe.op = Op::kMpe;
  mpe.cnf_text = "p cnf 1 2\n1 0\n-1 0\n";
  resp = client.Call(mpe);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, StatusCode::kInvalidInput);

  // Raw garbage frames: server answers what it can, then closes; it never
  // dies. A fresh request afterwards succeeds.
  {
    auto conn = Connect(ClientFor(**server).address);
    ASSERT_TRUE(conn.ok());
    (void)SendRaw(*conn, "GET / HTTP/1.1\r\n\r\n");  // wrong protocol
  }
  {
    auto conn = Connect(ClientFor(**server).address);
    ASSERT_TRUE(conn.ok());
    // Valid header promising 100 bytes, then hang up after 3.
    std::string frame = EncodeFrame(std::string(100, 'x'));
    (void)SendRaw(*conn, std::string_view(frame).substr(0, 11));
  }
  Request ping;
  ping.op = Op::kPing;
  auto pong = client.Call(ping);
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->ok());
}

TEST(Server, DeadlinePropagationRefusesHardInstancesInTime) {
  auto server = Server::Start(LoopbackOptions());
  ASSERT_TRUE(server.ok());
  Client client(ClientFor(**server));

  // A hard random 3-CNF at the phase transition, with a 1ms budget: the
  // server must answer a typed refusal, not work for seconds.
  Rng rng(7);
  std::string cnf = "p cnf 60 256\n";
  for (int i = 0; i < 256; ++i) {
    int a = 1 + static_cast<int>(rng.Below(60));
    int b = 1 + static_cast<int>(rng.Below(60));
    int c = 1 + static_cast<int>(rng.Below(60));
    cnf += std::to_string(rng.Flip(0.5) ? a : -a) + " " +
           std::to_string(rng.Flip(0.5) ? b : -b) + " " +
           std::to_string(rng.Flip(0.5) ? c : -c) + " 0\n";
  }
  Request req;
  req.op = Op::kCount;
  req.cnf_text = cnf;
  req.timeout_ms = 1.0;
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok()) << resp.status().message();
  if (!resp->ok()) {  // tiny instances may still finish in 1ms
    EXPECT_TRUE(IsRefusal(resp->status))
        << StatusCodeName(resp->status) << ": " << resp->message;
  }
}

TEST(Server, ConnectionLimitShedsWithTypedOverload) {
  ServerOptions opts = LoopbackOptions();
  opts.max_connections = 1;
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok());

  Address addr;
  addr.tcp_host = "127.0.0.1";
  addr.tcp_port = (*server)->port();
  auto first = Connect(addr);
  ASSERT_TRUE(first.ok());
  // Prove the first connection is established server-side before the
  // second one arrives (the cap is on open connections).
  ASSERT_TRUE(SendFrame(*first, Request{}.Serialize()).ok());
  std::string payload;
  ASSERT_TRUE(RecvFrame(*first, kDefaultMaxFrameBytes, 5000, 5000, &payload)
                  .ok());

  auto second = Connect(addr);
  ASSERT_TRUE(second.ok());
  Status st =
      RecvFrame(*second, kDefaultMaxFrameBytes, 5000, 5000, &payload);
  ASSERT_TRUE(st.ok()) << st.message();
  auto resp = Response::Parse(payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, StatusCode::kOverloaded);
}

TEST(Server, GracefulShutdownDrainsAndRefusesNewWork) {
  auto server = Server::Start(LoopbackOptions());
  ASSERT_TRUE(server.ok());
  const int port = (*server)->port();

  Client client(ClientFor(**server));
  Request count;
  count.op = Op::kCount;
  count.cnf_text = kSmallCnf;
  ASSERT_TRUE(client.Call(count).ok());

  (*server)->Shutdown();
  EXPECT_EQ((*server)->active_connections(), 0u);
  EXPECT_EQ((*server)->executing_requests(), 0u);

  // New connections are refused outright (listener closed).
  ClientOptions copts;
  copts.address.tcp_host = "127.0.0.1";
  copts.address.tcp_port = port;
  copts.retry.max_attempts = 2;
  copts.retry.initial_backoff_ms = 1.0;
  copts.deadline_ms = 2'000.0;
  Client after(copts);
  auto resp = after.Call(count);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kUnavailable);

  (*server)->Shutdown();  // idempotent
}

TEST(Server, UnixSocketEndToEnd) {
  ServerOptions opts;
  opts.address.uds_path =
      "/tmp/tbc_serve_test_" + std::to_string(::getpid()) + ".sock";
  opts.num_workers = 2;
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().message();

  ClientOptions copts;
  copts.address = opts.address;
  Client client(copts);
  Request count;
  count.op = Op::kCount;
  count.cnf_text = kSmallCnf;
  auto resp = client.Call(count);
  ASSERT_TRUE(resp.ok()) << resp.status().message();
  EXPECT_EQ(resp->count, "4");
  (*server)->Shutdown();  // also unlinks the socket path
}

}  // namespace
}  // namespace tbc::serve
