#include "fault/plan.h"

#include <charconv>
#include <sstream>

namespace ctrtl::fault {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStuckDisc:
      return "stuck-disc";
    case FaultKind::kStuckIllegal:
      return "stuck-illegal";
    case FaultKind::kForceBus:
      return "force-bus";
    case FaultKind::kDropTransfer:
      return "drop";
    case FaultKind::kCorruptModule:
      return "corrupt-module";
  }
  return "unknown";
}

std::string to_string(const FaultSpec& spec) {
  std::ostringstream out;
  out << to_string(spec.kind) << ' ' << spec.target;
  if (spec.kind == FaultKind::kForceBus ||
      spec.kind == FaultKind::kCorruptModule) {
    out << " = " << spec.value;
  }
  if (spec.step != 0 || spec.phase.has_value()) {
    out << " @" << spec.step;
    if (spec.phase.has_value()) {
      out << ':' << rtl::phase_name(*spec.phase);
    }
  }
  return out.str();
}

std::string to_text(const FaultPlan& plan) {
  std::ostringstream out;
  for (const FaultSpec& spec : plan.faults) {
    out << to_string(spec) << '\n';
  }
  return out.str();
}

namespace {

/// Splits one plan line into whitespace tokens, with '=' its own token.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  const auto flush = [&] {
    if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  };
  for (const char c : line) {
    if (c == ' ' || c == '\t') {
      flush();
    } else if (c == '=') {
      flush();
      tokens.emplace_back("=");
    } else {
      current.push_back(c);
    }
  }
  flush();
  return tokens;
}

/// Parses "@<step>" or "@<step>:<phase>"; reports into `diags` on failure.
bool parse_at(const std::string& token, unsigned line, FaultSpec& spec,
              common::DiagnosticBag& diags) {
  if (token.size() < 2 || token[0] != '@') {
    diags.error("expected '@<step>[:<phase>]', got '" + token + "'",
                common::SourceLocation{line, 1});
    return false;
  }
  const std::string body = token.substr(1);
  const std::size_t colon = body.find(':');
  const std::string step_text = body.substr(0, colon);
  // An unsigned decimal in 0..UINT_MAX, as in the .rtd grammar: no sign,
  // and nothing that would wrap when narrowed to `unsigned`.
  const char* const end = step_text.data() + step_text.size();
  const auto [ptr, ec] = std::from_chars(step_text.data(), end, spec.step);
  if (ec != std::errc() || ptr != end) {
    diags.error("bad control step '" + step_text + "'",
                common::SourceLocation{line, 1});
    return false;
  }
  if (colon != std::string::npos) {
    const std::string phase_text = body.substr(colon + 1);
    try {
      spec.phase = rtl::phase_from_name(phase_text);
    } catch (const std::exception&) {
      diags.error("bad phase '" + phase_text + "' (expected ra|rb|cm|wa|wb|cr)",
                  common::SourceLocation{line, 1});
      return false;
    }
  }
  return true;
}

/// Parses "= <value>" at tokens[index]; reports into `diags` on failure.
bool parse_value(const std::vector<std::string>& tokens, std::size_t index,
                 unsigned line, FaultSpec& spec, common::DiagnosticBag& diags) {
  if (index + 1 >= tokens.size() || tokens[index] != "=") {
    diags.error("expected '= <value>' after '" + spec.target + "'",
                common::SourceLocation{line, 1});
    return false;
  }
  const std::string& text = tokens[index + 1];
  try {
    std::size_t consumed = 0;
    spec.value = std::stoll(text, &consumed);
    if (consumed != text.size()) {
      throw std::invalid_argument(text);
    }
  } catch (const std::exception&) {
    diags.error("bad value '" + text + "'", common::SourceLocation{line, 1});
    return false;
  }
  return true;
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& text,
                           common::DiagnosticBag& diags) {
  FaultPlan plan;
  std::istringstream stream(text);
  std::string raw;
  unsigned line_number = 0;
  while (std::getline(stream, raw)) {
    ++line_number;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) {
      raw.erase(hash);
    }
    const std::vector<std::string> tokens = tokenize(raw);
    if (tokens.empty()) {
      continue;
    }
    const std::string& keyword = tokens[0];
    FaultSpec spec;
    if (keyword == "stuck-disc" || keyword == "stuck-illegal") {
      spec.kind = keyword == "stuck-disc" ? FaultKind::kStuckDisc
                                          : FaultKind::kStuckIllegal;
      if (tokens.size() < 2) {
        diags.error(keyword + " needs a register name",
                    common::SourceLocation{line_number, 1});
        continue;
      }
      spec.target = tokens[1];
      if (tokens.size() == 3) {
        if (!parse_at(tokens[2], line_number, spec, diags)) {
          continue;
        }
        if (spec.phase.has_value()) {
          diags.error(keyword + " takes '@<step>' without a phase",
                      common::SourceLocation{line_number, 1});
          continue;
        }
      } else if (tokens.size() > 3) {
        diags.error("trailing tokens after '" + keyword + " " + spec.target +
                        "'",
                    common::SourceLocation{line_number, 1});
        continue;
      }
    } else if (keyword == "force-bus") {
      spec.kind = FaultKind::kForceBus;
      if (tokens.size() != 5) {
        diags.error("force-bus needs '<bus> = <value> @<step>:<phase>'",
                    common::SourceLocation{line_number, 1});
        continue;
      }
      spec.target = tokens[1];
      if (!parse_value(tokens, 2, line_number, spec, diags) ||
          !parse_at(tokens[4], line_number, spec, diags)) {
        continue;
      }
      if (spec.step == 0 || !spec.phase.has_value()) {
        diags.error("force-bus needs an explicit '@<step>:<phase>'",
                    common::SourceLocation{line_number, 1});
        continue;
      }
      if (*spec.phase == rtl::Phase::kCm || *spec.phase == rtl::Phase::kCr) {
        diags.error("force-bus phase must be a transfer phase (ra|rb|wa|wb)",
                    common::SourceLocation{line_number, 1});
        continue;
      }
    } else if (keyword == "drop") {
      spec.kind = FaultKind::kDropTransfer;
      if (tokens.size() != 3) {
        diags.error("drop needs '<sink-endpoint> @<step>[:<phase>]'",
                    common::SourceLocation{line_number, 1});
        continue;
      }
      spec.target = tokens[1];
      if (!parse_at(tokens[2], line_number, spec, diags)) {
        continue;
      }
      if (spec.step == 0) {
        diags.error("drop needs an explicit step",
                    common::SourceLocation{line_number, 1});
        continue;
      }
    } else if (keyword == "corrupt-module") {
      spec.kind = FaultKind::kCorruptModule;
      if (tokens.size() != 4 && tokens.size() != 5) {
        diags.error("corrupt-module needs '<module> = <value> [@<step>]'",
                    common::SourceLocation{line_number, 1});
        continue;
      }
      spec.target = tokens[1];
      if (!parse_value(tokens, 2, line_number, spec, diags)) {
        continue;
      }
      if (tokens.size() == 5) {
        if (!parse_at(tokens[4], line_number, spec, diags)) {
          continue;
        }
        if (spec.phase.has_value()) {
          diags.error("corrupt-module takes '@<step>' without a phase",
                      common::SourceLocation{line_number, 1});
          continue;
        }
      }
    } else {
      diags.error("unknown fault kind '" + keyword +
                      "' (expected stuck-disc, stuck-illegal, force-bus, "
                      "drop, or corrupt-module)",
                  common::SourceLocation{line_number, 1});
      continue;
    }
    plan.faults.push_back(std::move(spec));
  }
  return plan;
}

}  // namespace ctrtl::fault
