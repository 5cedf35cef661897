// The rotation policies the rotation tests sweep: every block sizing and
// placement rule, plus the ablation policy without the paper's case
// preference (what bench/ablation_policies compares against).
#pragma once

#include "core/rotation.hpp"

namespace san {

struct PolicyCase {
  RotationPolicy policy;
  const char* name;
};

inline const PolicyCase kPolicies[] = {
    {{BlockSizing::kBalanced, BlockPlacement::kCentered}, "balanced-centered"},
    {{BlockSizing::kGreedyMax, BlockPlacement::kCentered}, "greedy-centered"},
    {{BlockSizing::kBalanced, BlockPlacement::kLeftmost}, "balanced-left"},
    {{BlockSizing::kBalanced, BlockPlacement::kRightmost}, "balanced-right"},
    {{BlockSizing::kGreedyMax, BlockPlacement::kLeftmost}, "greedy-left"},
    {{BlockSizing::kBalanced, BlockPlacement::kCentered,
      /*case_preference=*/false},
     "no-case-preference"},
};

}  // namespace san
