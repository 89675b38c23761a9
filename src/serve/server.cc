#include "serve/server.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <optional>

#include "analysis/structure/forecast.h"
#include "base/fault.h"
#include "base/guard.h"
#include "base/observability.h"
#include "nnf/queries.h"

namespace tbc::serve {

namespace {

constexpr int kPollTickMs = 100;  // how often blocked loops notice stopping_

// Work budget for the admission forecast (DynGraph pair-inspection units,
// see elimination.h). Request CNFs are untrusted and elimination
// simulation is cubic-ish on dense primal graphs, so the analysis that
// protects workers from hopeless compiles must itself be bounded: at this
// cap an adversarially dense CNF costs well under a second of analysis
// before it is admitted un-forecast (the Guard still bounds its compile),
// while every plausibly-compilable CNF completes far below it.
constexpr uint64_t kForecastWorkBudget = uint64_t{1} << 24;

Response ErrorResponse(const Status& st) {
  Response r;
  r.status = st.code();
  r.message = st.message();
  return r;
}

}  // namespace

Server::Server(const ServerOptions& opts)
    : opts_(opts), cache_(opts.cache_capacity, opts.store_dir) {}

Result<std::unique_ptr<Server>> Server::Start(const ServerOptions& opts) {
  std::unique_ptr<Server> server(new Server(opts));
  int port = -1;
  auto listener = Listen(opts.address, /*backlog=*/128, &port);
  if (!listener.ok()) return listener.status();
  server->listener_ = std::move(*listener);
  server->port_ = port;
  // Restore spilled artifacts before the acceptor starts: warm-start runs
  // single-threaded, so the restored managers' caches are written before
  // any query thread can share them.
  server->cache_.WarmStart();
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Server::~Server() { Shutdown(); }

void Server::Shutdown() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  adm_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();
  // Connection threads notice stopping_ at their next poll tick; in-flight
  // requests run to completion under their own guards first.
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
  }
  if (opts_.address.is_unix()) ::unlink(opts_.address.uds_path.c_str());
}

size_t Server::active_connections() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return open_conns_;
}

size_t Server::executing_requests() const {
  std::lock_guard<std::mutex> lock(adm_mu_);
  return executing_;
}

void Server::ReapFinishedLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    auto conn = Accept(listener_, kPollTickMs);
    if (!conn.ok()) {
      if (conn.status().code() == StatusCode::kDeadlineExceeded) continue;
      if (stopping_.load(std::memory_order_acquire)) return;
      TBC_COUNT("serve.accept.errors");
      continue;
    }
    TBC_COUNT("serve.connections.accepted");
    std::lock_guard<std::mutex> lock(conn_mu_);
    ReapFinishedLocked();
    if (open_conns_ >= opts_.max_connections) {
      // Refuse in-line: a typed overload frame, then close. Cheap enough
      // to not need a thread, and keeps the connection count bounded.
      TBC_COUNT("serve.connections.refused");
      SendFrame(*conn,
                ErrorResponse(Status::Overloaded("connection limit reached"))
                    .Serialize());
      continue;  // Socket destructor closes
    }
    auto c = std::make_unique<Conn>();
    Conn* raw = c.get();
    ++open_conns_;
    TBC_GAUGE_ADD("serve.connections.open", 1);
    raw->thread = std::thread([this, raw, sock = std::move(*conn)]() mutable {
      HandleConnection(std::move(sock));
      raw->done.store(true, std::memory_order_release);
    });
    conns_.push_back(std::move(c));
  }
}

Status Server::Admit(Guard& guard) {
  std::unique_lock<std::mutex> lock(adm_mu_);
  if (stopping_.load(std::memory_order_acquire)) {
    return Status::Unavailable("server draining");
  }
  if (TBC_FAULT_POINT("serve.queue.overload")) {
    TBC_COUNT("serve.faults.injected");
    TBC_COUNT("serve.requests.shed");
    return Status::Overloaded("injected queue overload");
  }
  if (executing_ < opts_.num_workers) {
    ++executing_;
    return Status::Ok();
  }
  if (queued_ >= opts_.max_queue) {
    TBC_COUNT("serve.requests.shed");
    return Status::Overloaded("queue full (" +
                              std::to_string(opts_.max_queue) + " waiting)");
  }
  ++queued_;
  TBC_GAUGE_ADD("serve.queue.depth", 1);
  Status st = Status::Ok();
  while (true) {
    if (stopping_.load(std::memory_order_acquire)) {
      st = Status::Unavailable("server draining");
      break;
    }
    st = guard.Check();
    if (!st.ok()) break;  // deadline lapsed while queued: typed refusal
    if (executing_ < opts_.num_workers) {
      ++executing_;
      break;
    }
    adm_cv_.wait_for(lock, std::chrono::milliseconds(20));
  }
  --queued_;
  TBC_GAUGE_ADD("serve.queue.depth", -1);
  return st;
}

void Server::Release() {
  {
    std::lock_guard<std::mutex> lock(adm_mu_);
    --executing_;
  }
  adm_cv_.notify_one();
}

void Server::HandleConnection(Socket conn) {
  int idle_ms = 0;
  std::string payload;
  std::string frame;  // each reply is framed in place in this one buffer
  while (true) {
    if (stopping_.load(std::memory_order_acquire)) break;
    Status st = RecvFrame(conn, opts_.max_frame_bytes,
                          /*idle_timeout_ms=*/kPollTickMs, opts_.io_timeout_ms,
                          &payload);
    if (st.code() == StatusCode::kDeadlineExceeded &&
        st.message() == "idle timeout") {
      idle_ms += kPollTickMs;
      if (opts_.idle_timeout_ms > 0 && idle_ms >= opts_.idle_timeout_ms) break;
      continue;  // quiet connection; re-check the stop flag
    }
    idle_ms = 0;
    if (st.code() == StatusCode::kUnavailable) break;  // peer closed cleanly
    if (!st.ok()) {
      // Bad magic, oversized frame, truncation, or a mid-frame stall: the
      // stream is unsynchronized and cannot be trusted further. Answer
      // with a typed refusal (best-effort) and close.
      TBC_COUNT("serve.requests.malformed");
      SendFrame(conn, ErrorResponse(st).Serialize());
      break;
    }

    if (TBC_FAULT_POINT("serve.frame.garbage")) {
      // Simulate wire corruption of an inbound payload.
      TBC_COUNT("serve.faults.injected");
      for (size_t i = 0; i < payload.size(); i += 7) payload[i] ^= 0x5a;
      if (payload.empty()) payload = "garbage";
    }

    auto parsed = Request::Parse(payload);
    if (!parsed.ok()) {
      // The framing was intact, so the stream is still aligned: refuse
      // this request but keep the connection.
      TBC_COUNT("serve.requests.malformed");
      if (!SendFrame(conn, ErrorResponse(parsed.status()).Serialize()).ok()) {
        break;
      }
      continue;
    }
    const Request& req = *parsed;
    TBC_COUNT("serve.requests.accepted");

    Budget budget;
    budget.timeout_ms = req.timeout_ms > 0
                            ? std::min(req.timeout_ms, opts_.max_timeout_ms)
                            : opts_.default_timeout_ms;
    budget.max_nodes = req.max_nodes;
    budget.max_decisions = req.max_decisions;
    Guard guard(budget);

    Response resp;
    Status admitted = Admit(guard);
    if (!admitted.ok()) {
      resp = ErrorResponse(admitted);
    } else {
      TBC_GAUGE_ADD("serve.requests.executing", 1);
      resp = Execute(req, guard);
      TBC_GAUGE_ADD("serve.requests.executing", -1);
      Release();
    }
    if (resp.ok()) {
      TBC_COUNT("serve.requests.ok");
    } else {
      TBC_COUNT("serve.requests.refused");
    }

    frame.clear();
    const size_t frame_start = BeginFrame(&frame);
    resp.AppendTo(&frame);
    FinishFrame(frame_start, &frame);
    if (TBC_FAULT_POINT("serve.frame.truncate")) {
      // Simulate the server dying mid-response: half a frame, then close.
      TBC_COUNT("serve.faults.injected");
      SendRaw(conn, std::string_view(frame).substr(0, frame.size() / 2));
      break;
    }
    if (!SendRaw(conn, frame).ok()) break;  // peer gone
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  --open_conns_;
  TBC_GAUGE_ADD("serve.connections.open", -1);
}

Response Server::Execute(const Request& req, Guard& guard) {
  TBC_SPAN("serve.request");
  if (TBC_FAULT_POINT("serve.request.delay")) {
    // Simulated slow request: holds its execution slot to build queue
    // pressure (and to keep the drain test's in-flight window open).
    TBC_COUNT("serve.faults.injected");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  Response resp;
  switch (req.op) {
    case Op::kPing:
      return resp;
    case Op::kStats:
      resp.stats_json = Observability::Global().RenderJson();
      return resp;
    default:
      break;
  }

  bool cache_hit = false;
  std::shared_ptr<const Artifact> cached;
  std::optional<Cnf> parsed_cnf;  // reused by the compile path below
  const uint64_t fingerprint = ArtifactCache::FingerprintOf(req.cnf_text);
  if (opts_.max_forecast_width > 0) {
    // Forecast admission (rule structure.width/structure.forecast): price
    // the compile with a bounded static pass and refuse hopeless requests
    // before they consume any compile Guard budget. Runs after Admit, so
    // at most num_workers analyses execute concurrently, and only on a
    // cache miss — a cached artifact's compile is sunk cost.
    cached = cache_.Lookup(req.cnf_text, fingerprint);
    if (cached == nullptr) {
      auto parsed = Cnf::ParseDimacs(req.cnf_text);
      if (!parsed.ok()) return ErrorResponse(parsed.status());
      parsed_cnf = std::move(parsed).value();
      // The analysis itself must not become the cheaper DoS vector: the
      // CNF is untrusted, and elimination simulation is far from linear
      // on dense primal graphs (one wide clause is already a clique). So
      // min-fill stays off and everything else runs under a fixed
      // deterministic work budget; an over-budget analysis degrades to
      // the linear passes plus the degeneracy lower bound. Whatever the
      // forecast cannot price is admitted — the Guard remains the
      // enforcer, exactly as before admission control existed.
      StructureOptions sopts;
      sopts.compute_backbone = false;  // routing needs widths only
      sopts.try_minfill = false;
      sopts.work_budget = kForecastWorkBudget;
      const StructureReport forecast = AnalyzeCnfStructure(*parsed_cnf, sopts);
      // Refusal is sound from either end of the bracket: a completed
      // order's width is achievable, and the degeneracy lower-bounds
      // every order — if even it exceeds the cap, the true width does too.
      if (forecast.width_lower_bound > opts_.max_forecast_width ||
          forecast.best_width() > opts_.max_forecast_width) {
        const uint32_t predicted =
            std::max(forecast.best_width(), forecast.width_lower_bound);
        TBC_COUNT("serve.requests.forecast_refused");
        return ErrorResponse(Status::RefusedByForecast(
            "predicted induced width " + std::to_string(predicted) +
            " exceeds the server cap " +
            std::to_string(opts_.max_forecast_width) +
            " (lower bound " + std::to_string(forecast.width_lower_bound) +
            "); compile forecast refused before any budget was consumed"));
      }
    }
  }
  auto artifact =
      cached != nullptr
          ? Result<std::shared_ptr<const Artifact>>(cached)
          : cache_.GetOrCompile(req.cnf_text, fingerprint, guard, &cache_hit,
                                parsed_cnf ? &*parsed_cnf : nullptr);
  if (cached != nullptr) cache_hit = true;
  if (!artifact.ok()) return ErrorResponse(artifact.status());
  const Artifact& art = **artifact;
  resp.artifact = art.key;
  resp.cache_hit = cache_hit;
  resp.circuit_nodes = art.nodes;
  resp.circuit_edges = art.edges;

  WeightMap weights(art.num_vars);
  for (const auto& [dimacs, w] : req.weights) {
    const uint64_t var = static_cast<uint64_t>(std::abs(dimacs));
    if (var == 0 || var > art.num_vars) {
      return ErrorResponse(Status::InvalidInput(
          "weight literal " + std::to_string(dimacs) + " out of range (" +
          std::to_string(art.num_vars) + " variables)"));
    }
    weights.Set(Lit::FromDimacs(dimacs), w);
  }

  // Queries run serially on the warmed immutable artifact (no ThreadPool):
  // concurrency lives at the request level, and serial kernels make the
  // response trivially bit-identical at every worker count.
  switch (req.op) {
    case Op::kCompile:
      resp.count = art.count.ToString();
      return resp;
    case Op::kCount:
      resp.count = art.count.ToString();
      return resp;
    case Op::kWmc: {
      auto wmc = WmcBounded(*art.mgr, art.root, weights, guard);
      if (!wmc.ok()) return ErrorResponse(wmc.status());
      resp.has_wmc = true;
      resp.wmc = *wmc;
      return resp;
    }
    case Op::kMar: {
      const std::vector<double> m =
          MarginalWmc(*art.mgr, art.root, weights);
      Status st = guard.Check();
      if (!st.ok()) return ErrorResponse(st);
      resp.marginals.reserve(m.size());
      for (size_t code = 0; code < m.size(); ++code) {
        resp.marginals.emplace_back(
            Lit::FromCode(static_cast<uint32_t>(code)).ToDimacs(), m[code]);
      }
      return resp;
    }
    case Op::kMpe: {
      if (art.count.IsZero()) {
        return ErrorResponse(
            Status::InvalidInput("MPE undefined: CNF is unsatisfiable"));
      }
      auto mpe =
          MaxWmcBounded(*art.mgr, art.root, weights, art.num_vars, guard);
      if (!mpe.ok()) return ErrorResponse(mpe.status());
      resp.has_mpe = true;
      resp.mpe_weight = mpe->weight;
      resp.mpe.reserve(art.num_vars);
      for (size_t v = 0; v < art.num_vars; ++v) {
        resp.mpe.push_back(
            Lit(static_cast<Var>(v), mpe->assignment[v]).ToDimacs());
      }
      return resp;
    }
    default:
      return ErrorResponse(Status::InvalidInput("unhandled op"));
  }
}

}  // namespace tbc::serve
