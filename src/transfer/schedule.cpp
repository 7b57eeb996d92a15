#include "transfer/schedule.h"

#include <stdexcept>
#include <string>

#include "transfer/mapping.h"

namespace ctrtl::transfer {

std::shared_ptr<const CompiledDesign> CompiledDesign::compile(Design design) {
  std::vector<TransInstance> instances = to_instances(design.transfers);
  return compile(std::move(design), std::move(instances));
}

std::shared_ptr<const CompiledDesign> CompiledDesign::compile(
    Design design, std::vector<TransInstance> instances) {
  common::DiagnosticBag diags;
  if (!validate(design, diags)) {
    throw std::invalid_argument("design '" + design.name +
                                "' does not validate:\n" + diags.to_text());
  }
  for (const TransInstance& instance : instances) {
    if (instance.step == 0 || instance.step > design.cs_max) {
      throw std::invalid_argument(
          "instance '" + instance.name() + "' fires at step " +
          std::to_string(instance.step) + ", outside 1.." +
          std::to_string(design.cs_max));
    }
    if (instance.phase == rtl::kPhaseHigh) {
      throw std::invalid_argument("instance '" + instance.name() +
                                  "' fires at phase cr, which has no release "
                                  "phase");
    }
  }
  auto compiled = std::make_shared<CompiledDesign>();
  compiled->plan = lower_lane_plan(design, instances);
  compiled->design = std::move(design);
  compiled->instances = std::move(instances);
  return compiled;
}

}  // namespace ctrtl::transfer
