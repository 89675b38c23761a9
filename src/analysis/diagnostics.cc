#include "analysis/diagnostics.h"

#include "base/strings.h"

namespace tbc {

const char* SeverityName(Severity s) {
  switch (s) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "error";
}

void DiagnosticReport::Add(Diagnostic d) {
  if (d.severity == Severity::kError) ++num_errors_;
  if (d.severity == Severity::kWarning) ++num_warnings_;
  if (diagnostics_.size() < max_diagnostics_) diagnostics_.push_back(std::move(d));
}

void DiagnosticReport::Add(Severity severity, const char* rule_id,
                           uint64_t node_id, std::string witness,
                           std::string message) {
  Add(Diagnostic{severity, rule_id, node_id, std::move(witness),
                 std::move(message)});
}

bool DiagnosticReport::HasRule(const std::string& rule_id) const {
  return FindRule(rule_id) != nullptr;
}

const Diagnostic* DiagnosticReport::FindRule(const std::string& rule_id) const {
  for (const Diagnostic& d : diagnostics_) {
    if (d.rule_id == rule_id) return &d;
  }
  return nullptr;
}

std::string DiagnosticReport::ToText(const std::string& subject) const {
  std::string out;
  for (const Diagnostic& d : diagnostics_) {
    out += subject + ": " + SeverityName(d.severity) + "[" + d.rule_id +
           "] node " + std::to_string(d.node_id) + ": " + d.message;
    if (!d.witness.empty()) out += " (witness: " + d.witness + ")";
    out += "\n";
  }
  const size_t dropped =
      num_errors_ + num_warnings_ >= diagnostics_.size()
          ? num_errors_ + num_warnings_ - diagnostics_.size()
          : 0;
  if (dropped > 0 && diagnostics_.size() >= max_diagnostics_) {
    out += subject + ": note: " + std::to_string(dropped) +
           " further diagnostics suppressed\n";
  }
  return out;
}

std::string DiagnosticReport::ToJson(const std::string& subject) const {
  std::string out = "{\"subject\":\"" + JsonEscape(subject) + "\",\"clean\":";
  out += clean() ? "true" : "false";
  out += ",\"errors\":" + std::to_string(num_errors_);
  out += ",\"warnings\":" + std::to_string(num_warnings_);
  out += ",\"diagnostics\":[";
  for (size_t i = 0; i < diagnostics_.size(); ++i) {
    const Diagnostic& d = diagnostics_[i];
    if (i > 0) out += ",";
    out += "{\"severity\":\"" + std::string(SeverityName(d.severity)) + "\"";
    out += ",\"rule\":\"" + JsonEscape(d.rule_id) + "\"";
    out += ",\"node\":" + std::to_string(d.node_id);
    out += ",\"witness\":\"" + JsonEscape(d.witness) + "\"";
    out += ",\"message\":\"" + JsonEscape(d.message) + "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace tbc
