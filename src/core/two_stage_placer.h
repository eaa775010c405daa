// two_stage_placer.h — the paper's enhanced, fault-aware placement (§6.2).
//
// Stage 1: fault-oblivious simulated annealing minimizes array area.
// Stage 2: low-temperature simulated annealing (LTSA) starting from the
// stage-1 placement refines for the weighted objective
// alpha*area - beta*FTI, using only single-module displacement moves so
// the compact structure is perturbed gently.
//
// The "two-stage" backend (core/placer.h) runs stage 1 as the "sa"
// backend at beta = 0 and stage 2 through anneal_ltsa; the spare
// advisor (core/spare_advisor.h) anneals stage 1 once and refines it at
// every beta of its sweep.
#pragma once

#include <cstdint>

#include "core/sa_placer.h"

namespace dmfb {

/// The stage-2 seed the "two-stage" backend splits off its context seed,
/// so stage 2 does not replay stage 1's stream.
std::uint64_t ltsa_seed(std::uint64_t context_seed);

/// Stage 2: anneals from `stage1` with context.ltsa at fault-tolerance
/// weight `beta`, single-module displacement moves only, drawing from
/// `seed`. Every other field (canvas, defects, route links, FTI options,
/// the other weights) comes from `context`.
PlacementOutcome anneal_ltsa(const Placement& stage1,
                             const PlacerContext& context, double beta,
                             std::uint64_t seed);

}  // namespace dmfb
