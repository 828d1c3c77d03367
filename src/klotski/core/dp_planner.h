// The Klotski-DP planner (§4.3, Algorithm 1, Theorem 1).
//
// Dynamic programming over the compact topology representation: state
// f(V, a) is the minimum cost of reaching topology V with last action type
// a. States are propagated level by level in the paper's "ascending total
// actions" order (level L = the states with L actions done; every
// predecessor V - e_a sits on level L - 1), and each level's predecessor
// safety checks run as one batch, in parallel when PlannerOptions asks for
// threads. The DP visits every
// intermediate topology, which is why A* — returning at the first pop of
// the target — is 1.7-3.8x faster in the paper's measurements.
#pragma once

#include "klotski/core/planner.h"

namespace klotski::core {

class DpPlanner : public Planner {
 public:
  std::string name() const override { return "Klotski-DP"; }

  Plan plan(migration::MigrationTask& task,
            constraints::CompositeChecker& checker,
            const PlannerOptions& options) override;
};

}  // namespace klotski::core
