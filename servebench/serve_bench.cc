// serve_bench: closed-loop load generator for the tbc serving stack.
//
// Starts tbc::serve::Server in this process on a unix socket and drives it
// with one client thread over that socket, which sends its next request
// only after the previous reply arrived. The inputs are weighted-model-
// counting encodings of Bayesian networks generated from --seed, and every
// answer is checked against an independent oracle: jointree marginals,
// variable-elimination MPE values and the network's own joint probability.
// The last line of stdout is one JSON result object; README.md lists the
// workloads and every metric.
//
//   serve_bench --workload hot|cold --seed N --seconds S --trace 0|1
//               --socket PATH [--trace-out FILE]

#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/guard.h"
#include "base/hash.h"
#include "base/observability.h"
#include "base/random.h"
#include "bayes/jointree.h"
#include "bayes/network.h"
#include "bayes/varelim.h"
#include "bayes/wmc_encoding.h"
#include "logic/cnf.h"
#include "nnf/queries.h"
#include "serve/artifact_cache.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace {

using namespace tbc;
using namespace tbc::serve;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads. Both use one network structure and draw the three query
// ops alike; they differ only in how requests share compiled artifacts,
// which is what the server's artifact cache turns into latency.

struct Workload {
  const char* name;
  size_t networks;        // distinct networks in the working set
  size_t cache_capacity;  // server artifact cache (LRU entries)
  bool rename;            // rename variables per request: fresh cache key
};

constexpr Workload kWorkloads[] = {
    {"hot", 8, 8, false},     // working set fits: every query is a cache hit
    {"cold", 16, 8, true},    // every request is new bytes: each compiles
};

constexpr size_t kBnVars = 24;       // binary network variables
constexpr size_t kParentWindow = 4;  // parents come from the 4 predecessors
constexpr size_t kMaxParents = 3;
constexpr size_t kQueriesPerNetwork = 16;
constexpr size_t kEvidenceVars = 4;
// One closed-loop client on one execution slot, so an op's latency is its
// own and never includes waiting behind another op. On a small shared
// machine, two concurrent compiles made run-to-run spread of p95 several
// times larger, and two clients sharing one slot made each op's latency
// depend on which ops the other client sent.
constexpr size_t kWorkers = 1;
constexpr int kSetupRepeats = 15;  // before the load, and again after it
constexpr double kWarmupSeconds = 1.0;
constexpr double kTolerance = 1e-7;  // relative to the oracle's scale
constexpr size_t kMaxTracedRequests = 4096;  // trace mode
constexpr size_t kStageSamples = 8;
// Client and server share one CPU at a time, and the run visits each of up
// to kMaxCpus CPUs kRounds times, in equal slices of the measured window.
// Every figure is then taken on the CPU where it came out lowest. On a
// shared machine, the CPUs that other tenants slowed by 1.5x changed from
// minute to minute, so a run pinned to one CPU, even one picked by a short
// calibration, came out either fast or slow. And with client and server on
// different CPUs, each request paid two cross-CPU wake-ups whose cost
// depended on where the scheduler put the threads.
constexpr size_t kMaxCpus = 4;
constexpr size_t kRounds = 2;

// The query ops, each reported on its own. No traffic data says how often
// each is asked, so the client draws them alike; that sets only how many
// samples each op's figures rest on, not the figures.
constexpr Op kOps[] = {Op::kWmc, Op::kMar, Op::kMpe};
constexpr size_t kNumOps = std::size(kOps);

double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// The lowest, over CPUs, of the q-quantile of the values taken on each.
double LowestOverCpus(const std::vector<std::vector<double>>& per_cpu,
                      double q) {
  double lowest = 0.0;
  for (const std::vector<double>& v : per_cpu) {
    if (v.empty()) continue;
    const double x = Quantile(v, q);
    if (lowest == 0.0 || x < lowest) lowest = x;
  }
  return lowest;
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Inputs and their oracle answers.

struct BnQuery {
  BnInstantiation evidence;
  double pr_evidence = 0.0;                    // Pr(e)
  std::vector<std::vector<double>> marginals;  // Pr(v = x, e)
  double mpe = 0.0;                            // max_x Pr(x, e)
};

// Heap-allocated and never moved: the encoding keeps a reference to `net`.
struct BnModel {
  BayesianNetwork net;
  std::unique_ptr<WmcEncoding> enc;
  std::vector<Var> perm;                        // this network's names
  std::vector<std::pair<int, double>> weights;  // non-unit, encoding names
  std::string dimacs;                           // CNF bytes under `perm`
  std::vector<BnQuery> queries;
};

// Banded random network: each variable's parents are among the few
// variables just before it, which keeps both oracles cheap (variable
// elimination eliminates in index order). The structure comes from
// `shape`, the CPT entries from `params`.
BayesianNetwork BandedNetwork(Rng& shape, Rng& params) {
  BayesianNetwork net;
  for (size_t v = 0; v < kBnVars; ++v) {
    const size_t window = std::min(v, kParentWindow);
    const size_t count =
        window == 0 ? 0 : shape.Below(std::min(window, kMaxParents) + 1);
    std::vector<BnVar> parents;
    while (parents.size() < count) {
      const BnVar p = static_cast<BnVar>(v - 1 - shape.Below(window));
      if (std::find(parents.begin(), parents.end(), p) == parents.end()) {
        parents.push_back(p);
      }
    }
    std::vector<double> cpt_true(size_t{1} << parents.size());
    for (double& x : cpt_true) x = 0.05 + 0.9 * params.Uniform();
    net.AddBinary("x" + std::to_string(v), std::move(parents),
                  std::move(cpt_true));
  }
  return net;
}

// `perm` renames the encoding's Boolean variables.
int Rename(int dimacs, const std::vector<Var>& perm) {
  const Lit l = Lit::FromDimacs(dimacs);
  return Lit(perm[l.var()], l.positive()).ToDimacs();
}

std::string Dimacs(const Cnf& cnf, const std::vector<Var>& perm) {
  std::string out = "p cnf " + std::to_string(cnf.num_vars()) + " " +
                    std::to_string(cnf.num_clauses()) + "\n";
  for (const Clause& clause : cnf.clauses()) {
    for (Lit l : clause) {
      out += std::to_string(Rename(l.ToDimacs(), perm));
      out += ' ';
    }
    out += "0\n";
  }
  return out;
}

// One model per network instantiation.
std::string ExpectedCount() { return std::to_string(uint64_t{1} << kBnVars); }

// Shuffles the names of the parameter variables among themselves and keeps
// the indicators in place. The bytes, and so the cache key, are new, while
// the compiler, which branches on indicators, does about the same work for
// every renaming; a full shuffle makes compile cost vary several-fold from
// one renaming to the next.
std::vector<Var> ParamRenaming(const WmcEncoding& enc, Rng& rng) {
  const size_t n = enc.num_bool_vars();
  std::vector<bool> indicator(n, false);
  for (BnVar v = 0; v < kBnVars; ++v) {
    for (Var u : enc.IndicatorVars(v)) indicator[u] = true;
  }
  std::vector<Var> params;
  for (Var u = 0; u < n; ++u) {
    if (!indicator[u]) params.push_back(u);
  }
  std::vector<Var> shuffled = params;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Below(i)]);
  }
  std::vector<Var> perm(n);
  for (Var u = 0; u < n; ++u) perm[u] = u;
  for (size_t i = 0; i < params.size(); ++i) perm[params[i]] = shuffled[i];
  return perm;
}

// Network `index` of a working set. Every network shares one fixed banded
// structure, and `index` alone fixes its variable names. So all networks
// cost the same to compile and to query, and seeds compare like with like:
// random structures differ several-fold in circuit size, which a handful
// of networks per run does not average out. The seed draws the CPT
// entries, the evidence, and (in the client) the request stream and the
// per-request renamings of "cold".
std::unique_ptr<BnModel> MakeModel(size_t index, uint64_t seed) {
  Rng shape(0x5e7eb0c4ull);
  Rng names(0x5e7eb0c5ull + index);
  Rng rng(seed);
  auto m = std::make_unique<BnModel>();
  m->net = BandedNetwork(shape, rng);
  m->enc = std::make_unique<WmcEncoding>(m->net);
  m->perm = ParamRenaming(*m->enc, names);
  const WeightMap& w = m->enc->weights();
  for (Var v = 0; v < m->enc->num_bool_vars(); ++v) {
    for (Lit l : {Pos(v), Neg(v)}) {
      if (w[l] != 1.0) m->weights.emplace_back(l.ToDimacs(), w[l]);
    }
  }
  m->dimacs = Dimacs(m->enc->cnf(), m->perm);
  const Jointree jointree(m->net);
  const VariableElimination ve(m->net);
  for (size_t i = 0; i < kQueriesPerNetwork; ++i) {
    BnQuery q;
    const BnInstantiation sample = m->net.Sample(rng);
    q.evidence.assign(kBnVars, kUnobserved);
    for (size_t k = 0; k < kEvidenceVars; ++k) {
      const size_t v = rng.Below(kBnVars);
      q.evidence[v] = sample[v];
    }
    q.marginals = jointree.AllMarginals(q.evidence);
    q.pr_evidence = q.marginals[0][0] + q.marginals[0][1];
    q.mpe = ve.MpeValue(q.evidence);
    m->queries.push_back(std::move(q));
  }
  return m;
}

using Models = std::vector<std::unique_ptr<BnModel>>;

// One request as a client draws it.
struct Draw {
  const BnModel* model = nullptr;
  const BnQuery* query = nullptr;
  size_t op = 0;  // index into kOps
  bool renamed = false;   // names drawn for this request alone
  std::vector<Var> perm;  // the names the request's CNF uses
};

Draw NextDraw(Rng& rng, const Workload& w, const Models& models) {
  Draw d;
  d.model = models[rng.Below(models.size())].get();
  d.query = &d.model->queries[rng.Below(kQueriesPerNetwork)];
  d.op = rng.Below(kNumOps);
  d.renamed = w.rename;
  d.perm = w.rename ? ParamRenaming(*d.model->enc, rng) : d.model->perm;
  return d;
}

Request MakeRequest(const Draw& d) {
  Request req;
  req.op = kOps[d.op];
  req.cnf_text =
      d.renamed ? Dimacs(d.model->enc->cnf(), d.perm) : d.model->dimacs;
  req.weights.reserve(d.model->weights.size() + kEvidenceVars);
  for (const auto& [lit, w] : d.model->weights) {
    req.weights.emplace_back(Rename(lit, d.perm), w);
  }
  // Evidence zeroes the weight of every contradicted indicator.
  for (BnVar v = 0; v < kBnVars; ++v) {
    const int e = d.query->evidence[v];
    if (e == kUnobserved) continue;
    const Var other = d.model->enc->IndicatorVar(v, 1 - e);
    req.weights.emplace_back(Rename(Pos(other).ToDimacs(), d.perm), 0.0);
  }
  return req;
}

bool Near(double got, double want, double scale) {
  return std::isfinite(got) && std::fabs(got - want) <= kTolerance * scale;
}

bool CheckResponse(const Draw& d, const Response& r) {
  const BnModel& m = *d.model;
  const BnQuery& q = *d.query;
  const auto indicator = [&](BnVar v, int x) {
    return Lit::FromDimacs(
        Rename(Pos(m.enc->IndicatorVar(v, x)).ToDimacs(), d.perm));
  };
  switch (kOps[d.op]) {
    case Op::kWmc:
      return r.has_wmc && Near(r.wmc, q.pr_evidence, q.pr_evidence);
    case Op::kMar: {
      const size_t n = m.enc->num_bool_vars();
      if (r.marginals.size() != 2 * n) return false;
      std::vector<double> by_code(2 * n, NAN);
      for (const auto& [lit, value] : r.marginals) {
        if (lit == 0 || static_cast<size_t>(std::abs(lit)) > n) return false;
        by_code[Lit::FromDimacs(lit).code()] = value;
      }
      for (BnVar v = 0; v < kBnVars; ++v) {
        for (int x = 0; x < 2; ++x) {
          if (!Near(by_code[indicator(v, x).code()], q.marginals[v][x],
                    q.pr_evidence)) {
            return false;
          }
        }
      }
      return true;
    }
    case Op::kMpe: {
      if (!r.has_mpe || !Near(r.mpe_weight, q.mpe, q.mpe) ||
          r.mpe.size() != m.enc->num_bool_vars()) {
        return false;
      }
      BnInstantiation inst(kBnVars, kUnobserved);
      for (BnVar v = 0; v < kBnVars; ++v) {
        for (int x = 0; x < 2; ++x) {
          const Lit l = indicator(v, x);
          if (r.mpe[l.var()] != l.ToDimacs()) continue;
          if (inst[v] != kUnobserved) return false;
          inst[v] = x;
        }
        if (inst[v] == kUnobserved) return false;
        if (q.evidence[v] != kUnobserved && q.evidence[v] != inst[v]) {
          return false;
        }
      }
      return Near(m.net.JointProbability(inst), r.mpe_weight, q.mpe);
    }
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Server set-up and the client loop.

ServerOptions MakeServerOptions(const Address& addr, const Workload& w) {
  ServerOptions opts;
  opts.address = addr;
  opts.num_workers = kWorkers;
  opts.max_queue = 4;  // the one client can never fill it
  opts.cache_capacity = w.cache_capacity;
  return opts;
}

ClientOptions MakeClientOptions(const Address& addr) {
  ClientOptions copts;
  copts.address = addr;
  copts.deadline_ms = 60'000.0;
  return copts;
}

// The first kMaxCpus CPUs this process may use, or {-1} if unknown.
std::vector<int> UsableCpus() {
  cpu_set_t allowed;
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < kMaxCpus; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);
  return cpus;
}

// Moves every thread of this process, the server's included, to `cpu`;
// threads started later inherit their creator's mask. Called only while no
// request is in flight. A negative `cpu` leaves the masks alone.
void PinProcess(int cpu) {
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (const dirent* entry = readdir(dir)) {
    const int tid = std::atoi(entry->d_name);
    if (tid > 0) sched_setaffinity(tid, sizeof(one), &one);
  }
  closedir(dir);
}

// Starts the server and compiles every network of the working set through
// it (for "cold", the networks its renamed requests derive from). Returns
// nullptr if the server cannot start; *ok turns false on a wrong count.
std::unique_ptr<Server> SetUp(const ServerOptions& opts, const Models& models,
                              bool* ok) {
  auto started = Server::Start(opts);
  if (!started.ok()) {
    std::fprintf(stderr, "serve_bench: cannot start server: %s\n",
                 started.status().message().c_str());
    return nullptr;
  }
  Client client(MakeClientOptions(opts.address));
  for (const auto& m : models) {
    Request req;
    req.op = Op::kCompile;
    req.cnf_text = m->dimacs;
    auto resp = client.Call(req);
    if (!resp.ok() || !resp->ok() || resp->count != ExpectedCount()) {
      *ok = false;
    }
  }
  return std::move(*started);
}

// Trace mode: one client-side span.
struct Span {
  const char* name;
  uint64_t request;  // shared by the spans of one request
  double start_us;   // since the run's start
  double dur_us;
};

struct ClientStats {
  // Measured window only: per op, per CPU.
  std::vector<std::vector<double>> latency_ms[kNumOps];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  // Trace mode.
  std::vector<double> encode_us, exchange_us, decode_us, request_bytes;
  std::vector<Span> spans;
};

// Trace mode: the production Client::Call makes the exchange, and the
// request encode and response decode it performs are timed on the side on
// the same request and reply. The exchange span is the call's time less
// those two: socket round trip, admission wait and server work.
Result<Response> TracedCall(Client* client, const Request& req, bool record,
                            uint64_t id, Clock::time_point run_start,
                            ClientStats* out) {
  const auto t0 = Clock::now();
  const std::string frame = EncodeFrame(req.Serialize());
  const auto t1 = Clock::now();
  Result<Response> resp = client->Call(req);
  const auto t2 = Clock::now();
  if (!resp.ok() || !record) return resp;
  const std::string payload = resp->Serialize();
  const auto t3 = Clock::now();
  const bool parsed = Response::Parse(payload).ok();
  const auto t4 = Clock::now();
  if (!parsed) return Status::InvalidInput("reply does not re-parse");
  const double encode = Micros(t0, t1);
  const double decode = Micros(t3, t4);
  out->encode_us.push_back(encode);
  out->exchange_us.push_back(Micros(t1, t2) - encode - decode);
  out->decode_us.push_back(decode);
  out->request_bytes.push_back(static_cast<double>(frame.size()));
  if (out->encode_us.size() <= kMaxTracedRequests) {
    const double base = Micros(run_start, t0);
    out->spans.push_back({"client.encode", id, base, encode});
    out->spans.push_back({"client.call", id, base + encode, Micros(t1, t2)});
    out->spans.push_back({"client.decode", id, Micros(run_start, t3), decode});
  }
  return resp;
}

struct Window {
  Clock::time_point start, measure_from, stop;
  std::vector<int> cpus;  // slice i of [measure_from, stop) runs on cpus[i % n]
};

void RunClient(uint64_t seed, const Workload& w, const Models& models,
               const Address& addr, bool trace, const Window& win,
               ClientStats* out) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  Client client(MakeClientOptions(addr));
  uint64_t id = 0;
  const size_t ncpus = win.cpus.size();
  for (auto& per_cpu : out->latency_ms) per_cpu.resize(ncpus);
  const size_t slices = kRounds * ncpus;
  const double slice_us =
      Micros(win.measure_from, win.stop) / static_cast<double>(slices);
  size_t slice = slices;  // none yet
  while (true) {
    const Draw d = NextDraw(rng, w, models);
    const Request req = MakeRequest(d);
    const auto t0 = Clock::now();
    if (t0 >= win.stop) break;
    const bool measured = t0 >= win.measure_from;
    if (measured) {
      const size_t now = std::min(
          static_cast<size_t>(Micros(win.measure_from, t0) / slice_us),
          slices - 1);
      if (now != slice) {
        slice = now;
        PinProcess(win.cpus[slice % ncpus]);
      }
    }
    const Result<Response> resp =
        trace ? TracedCall(&client, req, measured, ++id, win.start, out)
              : client.Call(req);
    const auto t1 = Clock::now();
    const bool answered = resp.ok() && resp->ok();
    const bool right = answered && CheckResponse(d, *resp);
    if (!measured) {
      if (answered && !right) ++out->wrong;
      continue;
    }
    ++out->attempted;
    out->latency_ms[d.op][slice % ncpus].push_back(Micros(t0, t1) / 1000.0);
    if (!answered) {
      ++out->failed;
    } else if (!right) {
      ++out->wrong;
    }
  }
}

// ---------------------------------------------------------------------------
// Trace mode: each server-side layer called directly on this workload's own
// inputs, so the stage split needs no instrumentation inside the server.

struct Stages {
  std::vector<double> hash, cnf_parse, request_parse, compile, wmc, mar, mpe,
      response_encode;
};

bool TimeStages(uint64_t seed, const Workload& w, const Models& models,
                Stages* s) {
  Rng rng(seed ^ 0x57a9e5ull);
  bool ok = true;
  for (size_t i = 0; i < kStageSamples; ++i) {
    const Draw d = NextDraw(rng, w, models);
    const Request req = MakeRequest(d);
    const std::string wire = req.Serialize();
    const auto t0 = Clock::now();
    const ContentHash h = HashBytes(req.cnf_text.data(), req.cnf_text.size());
    const auto t1 = Clock::now();
    auto cnf = Cnf::ParseDimacs(req.cnf_text);
    const auto t2 = Clock::now();
    auto parsed = Request::Parse(wire);
    const auto t3 = Clock::now();
    if (!cnf.ok() || !parsed.ok() || parsed->weights.size() != req.weights.size()) {
      return false;
    }
    Guard guard;
    auto art = ArtifactCache::Build(req.cnf_text, guard, &*cnf);
    const auto t4 = Clock::now();
    if (!art.ok()) return false;
    const Artifact& a = **art;
    WeightMap weights(a.num_vars);
    for (const auto& [lit, wt] : req.weights) {
      weights.Set(Lit::FromDimacs(lit), wt);
    }
    const auto t5 = Clock::now();
    auto wmc = WmcBounded(*a.mgr, a.root, weights, guard);
    const auto t6 = Clock::now();
    const std::vector<double> mar = MarginalWmc(*a.mgr, a.root, weights);
    const auto t7 = Clock::now();
    auto mpe = MaxWmcBounded(*a.mgr, a.root, weights, a.num_vars, guard);
    const auto t8 = Clock::now();
    Response resp;
    resp.marginals.reserve(mar.size());
    for (size_t code = 0; code < mar.size(); ++code) {
      resp.marginals.emplace_back(
          Lit::FromCode(static_cast<uint32_t>(code)).ToDimacs(), mar[code]);
    }
    const auto t9 = Clock::now();
    const std::string encoded = resp.Serialize();
    const auto t10 = Clock::now();
    ok = ok && (h.lo | h.hi) != 0 && !encoded.empty() && wmc.ok() &&
         mpe.ok() && Near(*wmc, d.query->pr_evidence, d.query->pr_evidence) &&
         Near(mpe->weight, d.query->mpe, d.query->mpe);
    s->hash.push_back(Micros(t0, t1));
    s->cnf_parse.push_back(Micros(t1, t2));
    s->request_parse.push_back(Micros(t2, t3));
    s->compile.push_back(Micros(t3, t4));
    s->wmc.push_back(Micros(t5, t6));
    s->mar.push_back(Micros(t6, t7));
    s->mpe.push_back(Micros(t7, t8));
    s->response_encode.push_back(Micros(t9, t10));
  }
  return ok;
}

// Chrome trace-event JSON: the client's spans (pid 1) and the server's own
// spans from the observability ring (pid 2), on one clock.
void WriteTrace(const std::string& path, const std::vector<Span>& spans,
                double registry_offset_us) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "serve_bench: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const Span& s : spans) {
    sep();
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":0"
        << ",\"ts\":" << s.start_us + registry_offset_us
        << ",\"dur\":" << s.dur_us << ",\"args\":{\"request\":" << s.request
        << "}}";
  }
  for (const SpanEvent& e : Observability::Global().SpanEvents()) {
    sep();
    out << "{\"name\":\"" << e.name << "\",\"ph\":\"X\",\"pid\":2,\"tid\":"
        << e.thread << ",\"ts\":" << e.start_us << ",\"dur\":" << e.duration_us
        << ",\"args\":{\"depth\":" << e.depth << "}}";
  }
  out << "\n]}\n";
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, v, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: serve_bench --workload hot|cold --seed N "
               "--seconds S --trace 0|1 --socket PATH [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  std::string workload_name, socket_path, trace_out;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else if (key == "--socket") {
      socket_path = value;
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr || socket_path.empty() || !(seconds > 0.0)) {
    return Usage();
  }
  auto addr = ParseAddress("unix:" + socket_path);
  if (!addr.ok()) {
    std::fprintf(stderr, "serve_bench: %s\n", addr.status().message().c_str());
    return 2;
  }

  Models models;
  Rng model_seeds(seed);
  for (size_t i = 0; i < workload->networks; ++i) {
    models.push_back(MakeModel(i, model_seeds.Next()));
  }

  const std::vector<int> cpus = UsableCpus();

  // Set-up, repeated: start the server and compile the working set, taking
  // the CPUs in turn. Half the repeats run before the load and half after
  // it, so a busy moment on the machine cannot set the median alone. The
  // load uses the last server set up before it.
  const ServerOptions opts = MakeServerOptions(*addr, *workload);
  bool correct = true;
  std::vector<std::vector<double>> setup_s(cpus.size());
  std::unique_ptr<Server> server;
  size_t setups = 0;
  const auto set_up = [&](int repeats) {
    for (int i = 0; i < repeats; ++i, ++setups) {
      if (server != nullptr) server->Shutdown();
      server.reset();
      PinProcess(cpus[setups % cpus.size()]);
      const auto t0 = Clock::now();
      server = SetUp(opts, models, &correct);
      setup_s[setups % cpus.size()].push_back(Micros(t0, Clock::now()) * 1e-6);
      if (server == nullptr) return false;
    }
    return true;
  };
  if (!set_up(kSetupRepeats)) return 1;

  // Load: warm-up, then the measured window.
  Window win;
  win.start = Clock::now();
  win.measure_from =
      win.start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(kWarmupSeconds));
  win.stop = win.measure_from + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  win.cpus = cpus;
  ClientStats stats;
  std::thread client(RunClient, seed, std::cref(*workload), std::cref(models),
                     std::cref(*addr), trace, std::cref(win), &stats);
  double registry_offset_us = 0.0;
  if (trace) {
    // Server-side counters and spans cover the measured window only.
    std::this_thread::sleep_until(win.measure_from);
    Observability& obs = Observability::Global();
    obs.Reset();
    registry_offset_us = static_cast<double>(obs.NowMicros()) -
                         Micros(win.start, Clock::now());
  }
  client.join();
  const uint64_t attempted = stats.attempted, failed = stats.failed;
  correct = correct && stats.wrong == 0 && attempted > 0;

  std::vector<Metric> metrics;
  if (!trace) {
    if (!set_up(kSetupRepeats)) return 1;
    server->Shutdown();
    // The 10th percentile: each op's latency when no other tenant of the
    // machine slows the CPU down. Higher percentiles measured mostly how
    // often that happened (see README.md).
    static const char* const kLatencyNames[kNumOps] = {
        "p10_wmc_ms", "p10_mar_ms", "p10_mpe_ms"};
    for (size_t op = 0; op < kNumOps; ++op) {
      const double p10 = LowestOverCpus(stats.latency_ms[op], 0.10);
      metrics.push_back({kLatencyNames[op], p10, "ms"});
      correct = correct && p10 > 0.0;
    }
    metrics.push_back({"setup_s", LowestOverCpus(setup_s, 0.5), "s"});
  } else {
    const Observability& obs = Observability::Global();
    const auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
    const double requests =
        static_cast<double>(obs.HistogramCount("span.serve.request"));
    const double server_us = per(
        static_cast<double>(obs.HistogramSum("span.serve.request")), requests);
    const double compiles =
        static_cast<double>(obs.HistogramCount("span.serve.compile"));
    const double hits = static_cast<double>(obs.CounterValue("serve.cache.hits"));
    const double misses =
        static_cast<double>(obs.CounterValue("serve.cache.misses"));
    server->Shutdown();
    if (!trace_out.empty()) WriteTrace(trace_out, stats.spans, registry_offset_us);
    Stages st;
    correct = TimeStages(seed, *workload, models, &st) && correct;
    metrics = {
        {"client_encode_us", Quantile(stats.encode_us, 0.5), "us"},
        {"client_exchange_us", Quantile(stats.exchange_us, 0.5), "us"},
        {"client_decode_us", Quantile(stats.decode_us, 0.5), "us"},
        {"server_request_us", server_us, "us"},
        {"queue_transport_us", Mean(stats.exchange_us) - server_us, "us"},
        {"server_compile_us",
         per(static_cast<double>(obs.HistogramSum("span.serve.compile")),
             compiles),
         "us"},
        {"cache_hit_pct", per(100.0 * hits, hits + misses), "%"},
        {"cache_hits", hits, "count"},
        {"cache_misses", misses, "count"},
        {"cache_evictions",
         static_cast<double>(obs.CounterValue("serve.cache.evictions")),
         "count"},
        {"compile_decisions",
         per(static_cast<double>(obs.CounterValue("ddnnf.decisions")),
             compiles),
         "count"},
        {"compile_nnf_nodes",
         per(static_cast<double>(obs.CounterValue("nnf.nodes.created")),
             compiles),
         "count"},
        {"request_bytes", Mean(stats.request_bytes), "B"},
        {"stage_hash_us", Quantile(st.hash, 0.5), "us"},
        {"stage_cnf_parse_us", Quantile(st.cnf_parse, 0.5), "us"},
        {"stage_request_parse_us", Quantile(st.request_parse, 0.5), "us"},
        {"stage_compile_us", Quantile(st.compile, 0.5), "us"},
        {"stage_wmc_us", Quantile(st.wmc, 0.5), "us"},
        {"stage_mar_us", Quantile(st.mar, 0.5), "us"},
        {"stage_mpe_us", Quantile(st.mpe, 0.5), "us"},
        {"stage_response_encode_us", Quantile(st.response_encode, 0.5), "us"},
    };
  }
  std::fprintf(stderr,
               "serve_bench: %s seed %llu: %llu requests (%llu failed, %llu "
               "wrong) in %.1f s on %zu cpus, setup %.3f s\n",
               workload->name, static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(stats.wrong), seconds,
               cpus.size(), LowestOverCpus(setup_s, 0.5));
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}
