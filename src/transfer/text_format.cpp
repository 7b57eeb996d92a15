#include "transfer/text_format.h"

#include <charconv>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

namespace ctrtl::transfer {

namespace {

std::string operand_text(const std::optional<OperandPath>& operand, bool bus) {
  if (!operand.has_value()) {
    return "-";
  }
  if (bus) {
    return operand->bus;
  }
  switch (operand->source.kind) {
    case Endpoint::Kind::kRegisterOut:
      return operand->source.resource;
    case Endpoint::Kind::kConstant:
      return "%" + operand->source.resource;  // '#' is the comment character
    case Endpoint::Kind::kInput:
      return "$" + operand->source.resource;
    default:
      return to_string(operand->source);
  }
}

}  // namespace

std::string to_text(const Design& design) {
  std::ostringstream out;
  out << "design " << design.name << '\n';
  out << "cs_max " << design.cs_max << '\n';
  for (const RegisterDecl& reg : design.registers) {
    out << "register " << reg.name;
    if (reg.initial.has_value()) {
      out << " init " << *reg.initial;
    }
    out << '\n';
  }
  for (const BusDecl& bus : design.buses) {
    out << "bus " << bus.name << '\n';
  }
  for (const InputDecl& input : design.inputs) {
    out << "input " << input.name << '\n';
  }
  for (const ConstantDecl& constant : design.constants) {
    out << "constant " << constant.name << ' ' << constant.value << '\n';
  }
  for (const ModuleDecl& module : design.modules) {
    out << "module " << module.name << ' ' << to_string(module.kind)
        << " latency " << module.latency;
    if (module.frac_bits != 0) {
      out << " frac " << module.frac_bits;
    }
    if (module.kind == ModuleKind::kCordic) {
      out << " iters " << module.iterations;
    }
    out << '\n';
  }
  for (const RegisterTransfer& t : design.transfers) {
    out << "transfer " << operand_text(t.operand_a, false) << ' '
        << operand_text(t.operand_a, true) << ' '
        << operand_text(t.operand_b, false) << ' '
        << operand_text(t.operand_b, true) << ' ';
    if (t.read_step) {
      out << *t.read_step;
    } else {
      out << '-';
    }
    out << ' ' << t.module << ' ';
    if (t.write_step) {
      out << *t.write_step;
    } else {
      out << '-';
    }
    out << ' ' << (t.write_bus ? *t.write_bus : "-") << ' '
        << (t.destination ? *t.destination : "-");
    if (t.op) {
      out << " op " << *t.op;
    }
    out << '\n';
  }
  return out.str();
}

namespace {

struct LineParser {
  std::vector<std::string> tokens;
  std::size_t next = 0;
  unsigned line = 0;
  common::DiagnosticBag* diags = nullptr;

  [[nodiscard]] bool done() const { return next >= tokens.size(); }

  std::optional<std::string> word(const char* what) {
    if (done()) {
      diags->error(std::string("missing ") + what,
                   common::SourceLocation{line, 1});
      return std::nullopt;
    }
    return tokens[next++];
  }

  std::optional<std::int64_t> number(const char* what) {
    const auto text = word(what);
    if (!text) {
      return std::nullopt;
    }
    return number(*text, what);
  }

  std::optional<std::int64_t> number(const std::string& text, const char* what) {
    std::int64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size()) {
      diags->error(std::string("bad ") + what + " '" + text + "'",
                   common::SourceLocation{line, 1});
      return std::nullopt;
    }
    return value;
  }

  /// A step number, latency, bit count or cs_max: a `number` in
  /// 0..UINT_MAX, so narrowing it to `unsigned` never wraps.
  std::optional<unsigned> count(const std::string& text, const char* what) {
    const auto value = number(text, what);
    if (!value) {
      return std::nullopt;
    }
    if (*value < 0 || *value > std::numeric_limits<unsigned>::max()) {
      diags->error(std::string(what) + " '" + text + "' out of range 0.." +
                       std::to_string(std::numeric_limits<unsigned>::max()),
                   common::SourceLocation{line, 1});
      return std::nullopt;
    }
    return static_cast<unsigned>(*value);
  }

  std::optional<unsigned> count(const char* what) {
    const auto text = word(what);
    if (!text) {
      return std::nullopt;
    }
    return count(*text, what);
  }
};

std::optional<ModuleKind> kind_from(const std::string& text) {
  for (const ModuleKind kind :
       {ModuleKind::kAdd, ModuleKind::kSub, ModuleKind::kMul, ModuleKind::kAlu,
        ModuleKind::kCopy, ModuleKind::kMacc, ModuleKind::kCordic}) {
    if (to_string(kind) == text) {
      return kind;
    }
  }
  return std::nullopt;
}

std::optional<OperandPath> parse_operand(const std::string& source,
                                         const std::string& bus) {
  if (source == "-" && bus == "-") {
    return std::nullopt;
  }
  Endpoint endpoint;
  if (!source.empty() && source.front() == '%') {
    endpoint = Endpoint::constant(source.substr(1));
  } else if (!source.empty() && source.front() == '$') {
    endpoint = Endpoint::input(source.substr(1));
  } else {
    endpoint = Endpoint::register_out(source);
  }
  return OperandPath{std::move(endpoint), bus};
}

}  // namespace

Design parse_design(std::string_view text, common::DiagnosticBag& diags) {
  Design design;
  std::istringstream stream{std::string(text)};
  std::string raw_line;
  unsigned line_number = 0;

  while (std::getline(stream, raw_line)) {
    ++line_number;
    // Strip comments: '#' at line start or after whitespace starts one
    // (the '%'/'$' operand sigils never collide with it).
    for (std::size_t i = 0; i < raw_line.size(); ++i) {
      if (raw_line[i] == '#' &&
          (i == 0 || raw_line[i - 1] == ' ' || raw_line[i - 1] == '\t')) {
        raw_line.resize(i);
        break;
      }
    }
    std::istringstream words(raw_line);
    LineParser lp;
    lp.line = line_number;
    lp.diags = &diags;
    std::string token;
    while (words >> token) {
      lp.tokens.push_back(token);
    }
    if (lp.tokens.empty()) {
      continue;
    }
    const std::string keyword = *lp.word("keyword");

    if (keyword == "design") {
      if (const auto name = lp.word("design name")) {
        design.name = *name;
      }
    } else if (keyword == "cs_max") {
      if (const auto n = lp.count("cs_max value")) {
        design.cs_max = *n;
      }
    } else if (keyword == "register") {
      const auto name = lp.word("register name");
      if (!name) {
        continue;
      }
      RegisterDecl reg{*name, std::nullopt};
      if (!lp.done()) {
        const auto init_kw = lp.word("'init'");
        if (init_kw && *init_kw == "init") {
          reg.initial = lp.number("init value");
        } else if (init_kw) {
          diags.error("expected 'init', found '" + *init_kw + "'",
                      common::SourceLocation{line_number, 1});
        }
      }
      design.registers.push_back(std::move(reg));
    } else if (keyword == "bus") {
      if (const auto name = lp.word("bus name")) {
        design.buses.push_back({*name});
      }
    } else if (keyword == "input") {
      if (const auto name = lp.word("input name")) {
        design.inputs.push_back({*name});
      }
    } else if (keyword == "constant") {
      const auto name = lp.word("constant name");
      const auto value = lp.number("constant value");
      if (name && value) {
        design.constants.push_back({*name, *value});
      }
    } else if (keyword == "module") {
      const auto name = lp.word("module name");
      const auto kind_text = lp.word("module kind");
      if (!name || !kind_text) {
        continue;
      }
      const auto kind = kind_from(*kind_text);
      if (!kind) {
        diags.error("unknown module kind '" + *kind_text + "'",
                    common::SourceLocation{line_number, 1});
        continue;
      }
      ModuleDecl module{*name, *kind, 1, 0, 24};
      while (!lp.done()) {
        const auto option = lp.word("module option");
        if (!option) {
          break;
        }
        if (*option == "latency") {
          if (const auto n = lp.count("latency")) {
            module.latency = *n;
          }
        } else if (*option == "frac") {
          if (const auto n = lp.count("frac bits")) {
            module.frac_bits = *n;
          }
        } else if (*option == "iters") {
          if (const auto n = lp.count("iterations")) {
            module.iterations = *n;
          }
        } else {
          diags.error("unknown module option '" + *option + "'",
                      common::SourceLocation{line_number, 1});
          break;
        }
      }
      design.modules.push_back(std::move(module));
    } else if (keyword == "transfer") {
      const auto src_a = lp.word("source A");
      const auto bus_a = lp.word("bus A");
      const auto src_b = lp.word("source B");
      const auto bus_b = lp.word("bus B");
      const auto read = lp.word("read step");
      const auto module = lp.word("module");
      const auto write = lp.word("write step");
      const auto wbus = lp.word("write bus");
      const auto dst = lp.word("destination");
      if (!src_a || !bus_a || !src_b || !bus_b || !read || !module || !write ||
          !wbus || !dst) {
        continue;
      }
      RegisterTransfer t;
      t.operand_a = parse_operand(*src_a, *bus_a);
      t.operand_b = parse_operand(*src_b, *bus_b);
      if (*read != "-") {
        t.read_step = lp.count(*read, "read step");
      }
      t.module = *module;
      if (*write != "-") {
        t.write_step = lp.count(*write, "write step");
      }
      if (*wbus != "-") {
        t.write_bus = *wbus;
      }
      if (*dst != "-") {
        t.destination = *dst;
      }
      if (!lp.done()) {
        const auto op_kw = lp.word("'op'");
        if (op_kw && *op_kw == "op") {
          t.op = lp.number("op code");
        } else if (op_kw) {
          diags.error("expected 'op', found '" + *op_kw + "'",
                      common::SourceLocation{line_number, 1});
        }
      }
      design.transfers.push_back(std::move(t));
    } else {
      diags.error("unknown keyword '" + keyword + "'",
                  common::SourceLocation{line_number, 1});
    }
    if (!lp.done()) {
      diags.error("trailing tokens after '" + keyword + "' line",
                  common::SourceLocation{line_number, 1});
    }
  }
  return design;
}

}  // namespace ctrtl::transfer
