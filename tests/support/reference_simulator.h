// reference_simulator.h — test oracle: the original straight-line droplet
// simulator the production EventSimEngine (sim/sim_engine.h) replaced.
//
// It walks the schedule module by module and rebuilds a chip-sized
// blocked matrix for every routing call — slow, but simple enough to
// read as the model's specification. tests/test_sim_engine.cpp and
// bench_perf_sim pin the event engine's SimulationResult against it bit
// for bit (events, op_outputs, route accounting, failure reasons).
#pragma once

#include "sim/simulator.h"

namespace dmfb {

/// Executes the assay exactly as EventSimEngine::run specifies, including
/// its std::invalid_argument validation of module counts and chip size.
SimulationResult run_reference(const SequencingGraph& graph,
                               const Schedule& schedule,
                               const Placement& placement, const Chip& chip,
                               const SimOptions& options = {});

}  // namespace dmfb
