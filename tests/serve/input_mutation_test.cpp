#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/diagnostics.h"
#include "fault/inject.h"
#include "serve/protocol.h"
#include "transfer/schedule.h"
#include "transfer/text_format.h"

namespace ctrtl::serve {
namespace {

// Robustness property for every byte a client can send: a seeded mutation
// sweep over the design, fault-plan and frame parsers. Inputs start from
// valid texts and are mutated by truncation, byte flips, splices from the
// other texts, and inserted tokens chosen to sit on numeric range edges.
// Every case must end in a value or a structured diagnostic; no exception
// may escape a parser, and only std::invalid_argument may leave lowering.

constexpr int kCases = 20000;
// Lowering costs time and memory in proportion to cs_max; the sweep lowers
// only designs whose parsed cs_max is at most this.
constexpr unsigned kMaxLoweredSteps = 4096;

constexpr std::string_view kFig1 =
    "design fig1\n"
    "cs_max 7\n"
    "register R1 init 30\n"
    "register R2 init 12\n"
    "bus B1\n"
    "bus B2\n"
    "module ADD add latency 1\n"
    "transfer R1 B1 R2 B2 5 ADD 6 B1 R1\n";

// Op-port modules, an input, a constant and partial tuples.
constexpr std::string_view kOps =
    "design ops\n"
    "cs_max 12\n"
    "register A init 5\n"
    "register B init 7\n"
    "register C\n"
    "bus B1\n"
    "bus B2\n"
    "bus B3\n"
    "input X\n"
    "constant K 3\n"
    "module ALU1 alu latency 0\n"
    "module MAC macc latency 2 frac 4\n"
    "module SIN cordic latency 1 frac 12 iters 8\n"
    "module CP copy latency 0\n"
    "transfer A B1 B B2 1 ALU1 1 B3 C op 0\n"
    "transfer $X B1 %K B2 3 MAC 5 B3 C op 3\n"
    "transfer A B1 - - 6 SIN 7 B2 B op 0\n"
    "transfer C B1 - - 8 CP 8 B2 A\n";

constexpr std::string_view kFaultPlan =
    "# every fault kind, against fig1\n"
    "stuck-disc R1 @5\n"
    "stuck-illegal R2\n"
    "force-bus B1 = 99 @5:ra\n"
    "drop ADD.in1 @5:rb\n"
    "corrupt-module ADD = 7 @6\n";

/// Tokens a mutation inserts: the largest `unsigned`, a negative number, a
/// number past `uint64`, and a phase suffix fault plans reject.
constexpr std::array<std::string_view, 4> kTokens = {
    "4294967295", "-1", "18446744073709551616", ":cr"};

/// Applies one to four random mutations to `text`; `donors` feed splices.
std::string mutate(std::string text, const std::vector<std::string>& donors,
                   std::mt19937& rng) {
  const auto below = [&rng](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  const std::size_t count = 1 + below(4);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t at = below(text.size() + 1);
    switch (below(4)) {
      case 0:  // truncation
        text.resize(at);
        break;
      case 1:  // byte flip
        if (!text.empty()) {
          text[at % text.size()] ^= static_cast<char>(1 + below(255));
        }
        break;
      case 2: {  // splice: a slice of a donor replaces a slice of the text
        const std::string& donor = donors[below(donors.size())];
        const std::size_t from = below(donor.size() + 1);
        text.replace(at, std::min(below(32), text.size() - at),
                     donor.substr(from, below(48)));
        break;
      }
      default: {  // token: replaces, precedes or suffixes the next word
        const std::string token(kTokens[below(kTokens.size())]);
        std::size_t begin = text.find_first_not_of(" \n", at);
        if (begin == std::string::npos) {
          text += " " + token;
          break;
        }
        std::size_t end = text.find_first_of(" \n", begin);
        end = end == std::string::npos ? text.size() : end;
        switch (below(3)) {
          case 0:
            text.replace(begin, end - begin, token);
            break;
          case 1:
            text.insert(begin, token + " ");
            break;
          default:
            text.insert(end, token);
            break;
        }
        break;
      }
    }
  }
  return text;
}

/// Lowers a parsed design the way the service does, when it is small
/// enough. Returns whether it lowered; a std::invalid_argument is the only
/// allowed rejection.
bool try_compile(const transfer::Design& design) {
  if (design.cs_max > kMaxLoweredSteps) {
    return false;
  }
  try {
    (void)transfer::CompiledDesign::compile(design);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

TEST(InputMutation, DesignTextEndsInDesignOrDiagnostic) {
  const std::vector<std::string> bases = {std::string(kFig1), std::string(kOps)};
  for (const std::string& base : bases) {
    common::DiagnosticBag diags;
    ASSERT_TRUE(try_compile(transfer::parse_design(base, diags)))
        << diags.to_text() << base;
  }
  std::mt19937 rng(1998u);
  int parsed = 0;
  int compiled = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string text = mutate(bases[i % bases.size()], bases, rng);
    try {
      common::DiagnosticBag diags;
      const transfer::Design design = transfer::parse_design(text, diags);
      if (diags.has_errors()) {
        EXPECT_FALSE(diags.to_text().empty()) << text;
        continue;
      }
      ++parsed;
      compiled += try_compile(design) ? 1 : 0;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "case " << i << " threw " << error.what() << ":\n" << text;
    }
  }
  // The sweep must reach lowering, not stop at the first bad byte.
  EXPECT_GT(parsed, kCases / 20);
  EXPECT_GT(compiled, kCases / 40);
}

TEST(InputMutation, FaultPlanEndsInDesignOrDiagnostic) {
  common::DiagnosticBag base_diags;
  const transfer::Design fig1 = transfer::parse_design(kFig1, base_diags);
  ASSERT_FALSE(base_diags.has_errors()) << base_diags.to_text();
  const std::vector<std::string> donors = {std::string(kFaultPlan),
                                           std::string(kFig1)};
  std::mt19937 rng(2024u);
  int applied = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string text = mutate(std::string(kFaultPlan), donors, rng);
    try {
      common::DiagnosticBag diags;
      const auto faulted = fault::parse_and_apply(fig1, text, diags);
      if (!faulted) {
        EXPECT_TRUE(diags.has_errors()) << text;
        continue;
      }
      ++applied;
      try {
        (void)fault::compile(*faulted);
      } catch (const std::invalid_argument&) {
      }
    } catch (const std::exception& error) {
      ADD_FAILURE() << "case " << i << " threw " << error.what() << ":\n" << text;
    }
  }
  EXPECT_GT(applied, kCases / 20);
}

TEST(InputMutation, FramesEndInRequestOrDiagnostic) {
  JobRequest request;
  request.job_id = "sweep-1";
  request.instances = 4;
  request.max_cycles = 40;
  request.max_delta_cycles = 1000;
  request.deadline_ms = 250;
  request.low_priority = true;
  request.inputs = {{"X", -3}, {"X", 9}};
  request.design_text = std::string(kOps);
  JobRequest faulted;
  faulted.job_id = "sweep-2";
  faulted.design_text = std::string(kFig1);
  faulted.has_fault_plan = true;
  faulted.fault_plan_text = std::string(kFaultPlan);
  const std::string stream =
      encode_frame(Frame{MessageType::kHello, "ctrtl-serve/2"}) +
      encode_frame(Frame{MessageType::kSubmit, encode_submit(request)}) +
      encode_frame(Frame{MessageType::kSubmit, encode_submit(faulted)}) +
      encode_frame(Frame{MessageType::kStats, ""});
  const std::vector<std::string> donors = {stream};

  std::mt19937 rng(7u);
  int submits = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string bytes = mutate(stream, donors, rng);
    try {
      // Feed the bytes in random chunks, as they would come off a socket.
      FrameDecoder decoder;
      Frame frame;
      for (std::size_t at = 0; at < bytes.size();) {
        const std::size_t chunk = 1 + rng() % 64;
        decoder.feed(std::string_view(bytes).substr(at, chunk));
        at += chunk;
        while (decoder.next(&frame)) {
          if (frame.type != MessageType::kSubmit) {
            continue;
          }
          JobRequest job;
          std::string error;
          if (!parse_submit(frame.payload, &job, &error)) {
            EXPECT_FALSE(error.empty());
            continue;
          }
          ++submits;
          common::DiagnosticBag diags;
          const transfer::Design design =
              transfer::parse_design(job.design_text, diags);
          if (!diags.has_errors() && job.has_fault_plan) {
            (void)fault::parse_and_apply(design, job.fault_plan_text, diags);
          }
        }
      }
      if (decoder.failed()) {
        EXPECT_FALSE(decoder.error().empty());
      }
    } catch (const std::exception& error) {
      ADD_FAILURE() << "case " << i << " threw " << error.what();
    }
  }
  EXPECT_GT(submits, kCases / 20);
}

}  // namespace
}  // namespace ctrtl::serve
