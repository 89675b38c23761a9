#include "analysis/psdd_analyzer.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/rules.h"
#include "analysis/sdd_analyzer.h"
#include "base/strings.h"

namespace tbc {

namespace {

constexpr double kSumTolerance = 1e-6;

std::string ThetaString(double theta) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", theta);
  return buffer;
}

// A ⊤-leaf's Bernoulli parameter lies in [0, 1]; 0 and 1 shrink the
// support.
void ReportBernoulli(double theta, uint64_t node, DiagnosticReport& report) {
  if (!(theta >= 0.0 && theta <= 1.0)) {
    report.Add(Severity::kError, rules::kPsddNormalized, node,
               ThetaString(theta), "Bernoulli parameter outside [0, 1]");
  } else if (theta == 0.0 || theta == 1.0) {
    report.Add(Severity::kWarning, rules::kPsddSupport, node,
               ThetaString(theta),
               "degenerate Bernoulli parameter removes models from the "
               "base's support");
  }
}

// A decision's element parameters are non-negative and sum to 1; a zero
// shrinks the support.
void ReportDistribution(const std::vector<double>& thetas, uint64_t node,
                        DiagnosticReport& report) {
  double total = 0.0;
  bool bad_theta = false;
  for (size_t i = 0; i < thetas.size(); ++i) {
    if (!(thetas[i] >= 0.0)) {
      bad_theta = true;
      report.Add(Severity::kError, rules::kPsddNormalized, node,
                 "element " + std::to_string(i) + ": " + ThetaString(thetas[i]),
                 "negative element parameter");
    } else {
      total += thetas[i];
      if (thetas[i] == 0.0) {
        report.Add(Severity::kWarning, rules::kPsddSupport, node,
                   "element " + std::to_string(i),
                   "zero element parameter removes the element's models "
                   "from the base's support");
      }
    }
  }
  if (!bad_theta && std::abs(total - 1.0) > kSumTolerance) {
    report.Add(Severity::kError, rules::kPsddNormalized, node,
               "sum = " + ThetaString(total),
               "element parameters do not sum to 1");
  }
}

}  // namespace

void AnalyzePsdd(const Psdd& psdd, DiagnosticReport& report) {
  const Vtree& vtree = psdd.vtree();
  for (PsddId n = 0; n < psdd.num_nodes(); ++n) {
    const VtreeId v = psdd.vtree_node(n);
    switch (psdd.kind(n)) {
      case Psdd::Kind::kLiteral: {
        for (const SddFaultAt& f : CheckSddLiteral(vtree, v, psdd.literal(n))) {
          report.Add(Severity::kError, rules::kPsddStructure, n,
                     SddFaultWitness(f), SddFaultMessage(f.fault));
        }
        break;
      }
      case Psdd::Kind::kTop: {
        if (!vtree.IsLeaf(v)) {
          report.Add(Severity::kError, rules::kPsddStructure, n, "",
                     "top node does not sit on a vtree leaf");
        }
        ReportBernoulli(psdd.theta_true(n), n, report);
        break;
      }
      case Psdd::Kind::kDecision: {
        if (vtree.IsLeaf(v)) {
          report.Add(Severity::kError, rules::kPsddStructure, n, "",
                     "decision node sits on a vtree leaf");
          break;
        }
        const auto& elements = psdd.elements(n);
        if (elements.empty()) {
          report.Add(Severity::kError, rules::kPsddStructure, n, "",
                     "decision node with an empty partition");
          break;
        }
        std::vector<double> thetas;
        for (size_t i = 0; i < elements.size(); ++i) {
          const Psdd::Element& el = elements[i];
          // Normalized form: primes sit exactly on left(v), subs on
          // right(v) — pass-through nodes fill any vtree gap.
          if (psdd.vtree_node(el.prime) != vtree.left(v)) {
            report.Add(Severity::kError, rules::kPsddStructure, n,
                       "element " + std::to_string(i),
                       "prime is not normalized for the left vtree of its "
                       "decision node");
          }
          if (psdd.vtree_node(el.sub) != vtree.right(v)) {
            report.Add(Severity::kError, rules::kPsddStructure, n,
                       "element " + std::to_string(i),
                       "sub is not normalized for the right vtree of its "
                       "decision node");
          }
          thetas.push_back(el.theta);
        }
        ReportDistribution(thetas, n, report);
        break;
      }
    }
  }
}

void AnalyzePsddFile(const std::string& text, const Vtree& vtree,
                     DiagnosticReport& report) {
  // The SDD body carries the structural invariants. The parameter section
  // (the psdd-params header and the P lines) is blanked out of what the
  // SDD parser reads, which keeps the body's line numbers.
  const std::vector<std::string> lines = SplitChar(text, '\n');
  std::string body;
  for (const std::string& raw : lines) {
    const std::string_view line = StripWhitespace(raw);
    if (line.rfind("psdd-params", 0) != 0 && line.rfind('P', 0) != 0) body += raw;
    body += '\n';
  }
  AnalyzeSddFile(body, vtree, SddAnalysisOptions{}, report);

  // Parameter lines are checked as distributions in isolation — the
  // structure they attach to lives in the body above.
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string_view line = StripWhitespace(lines[i]);
    if (line.rfind('P', 0) != 0) continue;
    PsddParamLine params;
    if (const Status read = ReadPsddParamLine(line, &params); !read.ok()) {
      report.Add(Severity::kError, rules::kPsddParse, params.node,
                 "line " + std::to_string(i + 1), read.message());
      continue;
    }
    // One parameter: a ⊤-leaf's Bernoulli or a 1-element decision's θ,
    // which must lie in [0, 1] either way (and equal 1 for a decision).
    if (params.thetas.size() == 1) {
      ReportBernoulli(params.thetas[0], params.node, report);
    } else {
      ReportDistribution(params.thetas, params.node, report);
    }
  }
}

}  // namespace tbc
