#include "transfer/walk.h"

#include <algorithm>
#include <cstdint>

namespace ctrtl::transfer {

namespace {

std::uint64_t level_of(unsigned step, rtl::Phase phase) {
  return (std::uint64_t{step} - 1) * rtl::kPhasesPerStep +
         static_cast<std::uint64_t>(rtl::phase_index(phase));
}

std::uint64_t level_of(const TransInstance* instance) {
  return level_of(instance->step, instance->phase);
}

}  // namespace

InstanceWalker::InstanceWalker(std::span<const TransInstance> instances,
                               unsigned cs_max)
    : cs_max_(cs_max) {
  by_level_.reserve(instances.size());
  for (const TransInstance& instance : instances) {
    if (instance.step != 0 && instance.step <= cs_max) {
      by_level_.push_back(&instance);
    }
  }
  std::ranges::stable_sort(by_level_, {}, [](const TransInstance* instance) {
    return level_of(instance);
  });
}

std::span<const TransInstance* const> InstanceWalker::fires(
    unsigned step, rtl::Phase phase) const {
  if (step == 0 || step > cs_max_) {
    return {};
  }
  const auto [first, last] = std::ranges::equal_range(
      by_level_, level_of(step, phase), {},
      [](const TransInstance* instance) { return level_of(instance); });
  return {first, last};
}

}  // namespace ctrtl::transfer
