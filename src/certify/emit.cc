#include "certify/emit.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "base/check.h"
#include "base/observability.h"
#include "certify/checker.h"
#include "nnf/queries.h"

namespace tbc {

namespace {

// Replays `src`'s construction into `dst`. The store is canonical and
// append-only, so interning each node's (already canonical) children in id
// order reproduces the table with identical ids — which is what keeps the
// trace's node references valid inside the certificate.
void CopyNnfTable(const NnfManager& src, NnfManager* dst) {
  for (NnfId n = 2; n < src.num_nodes(); ++n) {
    NnfId got = kInvalidNnf;
    switch (src.kind(n)) {
      case NnfManager::Kind::kFalse:
        got = dst->False();
        break;
      case NnfManager::Kind::kTrue:
        got = dst->True();
        break;
      case NnfManager::Kind::kLiteral:
        got = dst->Literal(src.lit(n));
        break;
      case NnfManager::Kind::kAnd:
        got = dst->And(src.children(n));
        break;
      case NnfManager::Kind::kOr:
        got = dst->Or(src.children(n));
        break;
    }
    TBC_CHECK_MSG(got == n, "NNF store replay diverged (non-canonical table)");
  }
}

}  // namespace

Certificate BuildDdnnfCertificate(const Cnf& cnf, const NnfManager& mgr,
                                  NnfId root, const DdnnfTrace* trace,
                                  BigUint claimed_count) {
  Certificate cert;
  cert.kind = Certificate::Kind::kDdnnf;
  cert.cnf = cnf;
  CopyNnfTable(mgr, &cert.nnf);
  cert.root = root;
  if (trace != nullptr) {
    cert.ddnnf.comps = trace->comps;
    cert.ddnnf.top = trace->top;
  }
  cert.claimed_count = std::move(claimed_count);
  return cert;
}

Certificate BuildObddCertificate(const Cnf& cnf, ObddTrace trace,
                                 BigUint claimed_count) {
  Certificate cert;
  cert.kind = Certificate::Kind::kObdd;
  cert.cnf = cnf;
  // Drop order variables the CNF does not know about: they cannot occur in
  // any recorded node (the checker enforces that), and the count formula's
  // free-variable factor is defined over cnf.num_vars().
  std::vector<Var> order;
  order.reserve(trace.order.size());
  for (Var v : trace.order) {
    if (v < cnf.num_vars()) order.push_back(v);
  }
  trace.order = std::move(order);
  cert.obdd = std::move(trace);
  cert.claimed_count = std::move(claimed_count);
  return cert;
}

Certificate BuildSddCertificate(const Cnf& cnf, const SddManager& mgr,
                                SddId root, BigUint claimed_count) {
  Certificate cert;
  cert.kind = Certificate::Kind::kSdd;
  cert.cnf = cnf;
  cert.root = mgr.ToNnf(root, cert.nnf);
  cert.claimed_count = std::move(claimed_count);
  return cert;
}

void CertifyOrDie(const Certificate& cert, const char* site) {
  // WriteCertificate counts certify.traces_emitted / certify.trace_bytes.
  const std::string text = WriteCertificate(cert);
  Result<Certificate> parsed = ParseCertificate(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "[%s] emitted certificate does not reparse: %s\n",
                 site, parsed.status().message().c_str());
    std::abort();
  }
  const CertifyResult result = CheckCertificate(*parsed);
  if (!result.ok()) {
    std::fprintf(stderr, "[%s] certificate verification failed\n%s", site,
                 result.report.ToText(site).c_str());
    std::abort();
  }
}

void CertifyDdnnfOrDie(const Cnf& cnf, NnfManager& mgr, NnfId root,
                       const DdnnfTrace* trace, const char* site) {
  BigUint claimed = ModelCount(mgr, root, cnf.num_vars());
  CertifyOrDie(
      BuildDdnnfCertificate(cnf, mgr, root, trace, std::move(claimed)), site);
}

void CertifyObddOrDie(const Cnf& cnf, ObddManager& mgr, ObddTrace trace,
                      const char* site) {
  NnfManager scratch;
  BigUint claimed =
      ModelCount(scratch, mgr.ToNnf(trace.root, scratch), cnf.num_vars());
  CertifyOrDie(BuildObddCertificate(cnf, std::move(trace), std::move(claimed)),
               site);
}

void CertifySddOrDie(const Cnf& cnf, SddManager& mgr, SddId root,
                     const char* site) {
  // The certificate carries the SDD's NNF export; count on it.
  Certificate cert = BuildSddCertificate(cnf, mgr, root, BigUint(0));
  cert.claimed_count = ModelCount(cert.nnf, cert.root, cnf.num_vars());
  CertifyOrDie(cert, site);
}

}  // namespace tbc
