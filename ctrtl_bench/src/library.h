#pragma once

// Library-level probes of the traced run, timed from here around public
// calls: experiment E6 at equal footing (build and run as separate spans,
// normalised per control step or clock cycle) and the generator/verifier
// stages of the corpus path.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "transfer/design.h"

namespace ctrtl_bench {

/// Per engine (event, compiled, lane1, clocked, handshake): build times in
/// microseconds and run times in nanoseconds per control step (clock cycle
/// for the clocked baseline).
struct E6Result {
  std::map<std::string, std::vector<double>> build_us;
  std::map<std::string, std::vector<double>> run_ns_per_step;
  /// Designs on which the clock-free engines disagreed on delta cycles.
  std::uint64_t mismatches = 0;
};

[[nodiscard]] E6Result run_e6(const std::vector<ctrtl::transfer::Design>& designs,
                              int repetitions, SpanBuffer& spans);

struct CorpusStages {
  std::vector<double> generate_us;
  std::vector<double> oracle_us;
  std::vector<double> equivalence_us;
  std::vector<double> oracle_check_us;
  /// `CorpusReport::failures` over the cases plus inconsistent stage checks.
  std::uint64_t failures = 0;
  std::uint64_t cases = 0;
};

/// The stages of `count` mixed-profile cases from `first_seed` on, timed one
/// by one, then the same cases through `gen::run_corpus` (engine
/// equivalence, oracle, fault sweep on every tenth case).
[[nodiscard]] CorpusStages run_corpus_stages(std::uint64_t first_seed,
                                             unsigned count, SpanBuffer& spans);

}  // namespace ctrtl_bench
