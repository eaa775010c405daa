// incremental_cost.h — O(1)-amortized delta-cost evaluation for the
// simulated-annealing placers.
//
// A copying annealer evaluates every proposal by duplicating the whole
// Placement and recomputing cost from scratch: overlap walks every
// conflicting pair, defect usage is O(modules x defects), and (with
// beta > 0) the FTI evaluator rebuilds every module's occupancy prefix
// sums over the full region. Classic SA placers (TimberWolf, VPR) instead
// mutate one state in place and price a move by the terms it actually
// touched, undoing on rejection. IncrementalPlacementState is the delta
// engine's state: it owns the current Placement plus caches —
//
//   * per-conflicting-pair overlap areas with a running total,
//   * per-module defect-hit counts against a prefix-summed defect grid,
//   * per-module FTI relocation queries (FtiIncrementalEvaluator),
//   * per-RouteLink routing-pressure costs in CSR adjacency (gamma != 0),
//
// and exposes propose(move) -> delta (or a floor on it), resolve(),
// commit(), revert(). Every absolute cost is recomputed from the
// maintained integer tallies with the exact arithmetic of
// CostEvaluator::evaluate, so the delta engine's accept decisions — and
// therefore its whole trajectory — are bit-identical to the copying
// oracle's for the same seed (tests/test_incremental_cost.cpp pins this
// against tests/support/copy_annealer.h).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/cost.h"
#include "core/fti.h"
#include "core/moves.h"
#include "core/placement.h"

namespace dmfb {

/// In-place move/undo placement state for delta-cost annealing. At most
/// one proposal may be outstanding. propose() prices a move without
/// mutating the placement: every term but FTI exactly, and FTI — when
/// beta != 0 — by its best case, so the returned value is a floor on
/// the delta. resolve() prices the FTI term exactly (applying the move);
/// commit() keeps the move, revert() drops it.
class IncrementalPlacementState {
 public:
  /// Takes ownership of `placement` and prices it with `evaluator`'s
  /// weights, FTI options and defect map.
  IncrementalPlacementState(Placement placement,
                            const CostEvaluator& evaluator);

  /// The committed placement — except between resolve() and
  /// commit()/revert(), when it is the proposed one (propose() alone
  /// leaves it untouched).
  const Placement& placement() const { return placement_; }

  /// Absolute cost of the committed placement; bit-identical to
  /// CostEvaluator::evaluate(placement()).value. A pending proposal,
  /// resolved or not, does not change it.
  double cost() const {
    return pending_.active && pending_.applied ? pending_.staged.value
                                               : value_;
  }

  /// Cost decomposition from the maintained tallies (same fields as
  /// CostEvaluator::evaluate).
  CostBreakdown breakdown() const;

  /// Overlap-free and within the canvas — Placement::feasible() of the
  /// committed placement, without the O(pairs + modules) walk.
  bool feasible() const {
    return overlap_total_ == 0 && outside_count_ == 0;
  }

  /// Module cells on defective electrodes (CostEvaluator::defect_usage).
  long long defect_cells() const { return defect_total_; }

  /// The engaged FTI evaluator (nullptr at beta = 0, where the term is
  /// never computed). Exposed so the coverage-audit tests can pin its
  /// per-cell state against the reference evaluators.
  const FtiIncrementalEvaluator* fti_evaluator() const {
    return weights_.beta != 0.0 ? &fti_ : nullptr;
  }

  /// Prices `move` against hypothetical footprints without touching the
  /// placement or any cache, so a rejected proposal costs no writes.
  /// Returns (new cost - old cost) when exact(), else a floor on it: the
  /// area, overlap, defect and route-pressure terms priced exactly with
  /// FTI at its best case (1 when beta > 0, 0 when beta < 0). FTI lies
  /// in [0, 1] and IEEE + - x round monotonically, so the floor is <= the
  /// exact delta bit for bit. A proposal must be resolved by commit() or
  /// revert() before the next propose().
  double propose(const PlacementMove& move);

  /// Draws one random move and prices it in a single fused pass — the
  /// portfolio replicas' proposal path. Consumes the same draws in the
  /// same order as `generate_random_move_with_span` followed by `propose`,
  /// returns what `propose` would, but skips the intermediate
  /// PlacementMove hand-off and the separate no-op rescan (generation
  /// already knows whether the move lands where the module stands). The
  /// generated kind is readable via `last_move_kind()` until the next
  /// proposal.
  double propose_random(int window_span, const MoveOptions& options,
                        Rng& rng);

  /// Whether the pending proposal's priced delta is exact: always at
  /// beta = 0, for no-op moves, and after resolve(); otherwise the value
  /// propose() returned is only a floor.
  bool exact() const { return pending_.exact; }

  /// Prices a pending proposal that is not exact() exactly and returns
  /// its delta. This applies the move (placement, tallies, FTI patch);
  /// revert() still undoes it.
  double resolve();

  /// Kind of the most recently proposed move (fused or explicit).
  MoveKind last_move_kind() const { return pending_.move.kind; }

  /// Keeps the proposed move (resolving it first if needed); returns the
  /// (new) absolute cost.
  double commit();

  /// Discards the proposed move.
  void revert();

  bool has_pending() const { return pending_.active; }

 private:
  /// The proposal's side of every tally a move can touch. propose()
  /// fills it; resolve() exchanges it with the state's side, so it then
  /// holds the pre-move values that revert() exchanges back.
  struct Staged {
    long long overlap_total = 0;
    long long defect_total = 0;
    long long pressure_total = 0;
    int outside_count = 0;
    Rect bbox;
    double value = 0.0;  ///< exact cost, or the floor's cost until resolved
  };

  struct Pending {
    bool active = false;
    bool exact = true;     ///< the priced delta is exact (see exact())
    bool applied = false;  ///< resolve() applied the move; revert() undoes
    /// The move; resolve() exchanges its anchors and orientations with
    /// the placement's, like every other staged value.
    PlacementMove move;
    Staged staged;

    // Per touched module and per re-priced pair/link entry; the new_*
    // values are staged like Staged's. `footprints_` takes
    // the new footprints in propose() itself (the overlap and bbox
    // pricing read them); revert() puts `old_footprints` back.
    Rect old_footprints[2];
    bool new_outside[2] = {false, false};
    long long new_defect_hits[2] = {0, 0};
    std::vector<std::pair<int, long long>> new_pair_overlaps;
    std::vector<std::pair<int, long long>> new_link_costs;

    // resolve()'s FTI undo data.
    long long old_covered = 0;
    FtiIncrementalEvaluator::Backup fti_backup;
  };

  /// The combined objective, in the exact expression order of
  /// CostEvaluator::evaluate (bit-compatibility with the copy oracle).
  double value_of(long long area_cells, long long overlap_cells,
                  long long defect_cells, double fti,
                  long long route_pressure) const;

  /// value_of over the committed tallies.
  double value_from_tallies() const;

  /// Pricing shared by propose()/propose_random(): `noop` tells it the
  /// move provably lands every touched module exactly where it stands.
  double propose_known(const PlacementMove& move, bool noop);

  /// Moves the pending proposal's staged values into the state. With
  /// kKeepOld the state's values move into the staged slots in exchange
  /// (see Staged), so a second call undoes the first; commit() of an
  /// unresolved proposal needs no undo and just assigns.
  template <bool kKeepOld>
  void apply_staged();

  long long defect_hits(const Rect& footprint) const;

  Placement placement_;
  CostWeights weights_;
  std::vector<Point> defects_;

  /// Current footprint of every module — PlacedModule::footprint() is hot
  /// enough in the proposal loop (pair overlaps, bbox, defects all need
  /// it) that re-deriving it from the spec each time measurably costs.
  std::vector<Rect> footprints_;

  /// One conflicting pair with its cached overlap, packed so the pricing
  /// loop touches one cache line per pair (indices and overlap together).
  struct PairEntry {
    int i = 0;
    int j = 0;
    long long overlap = 0;
  };

  /// Conflicting pairs touching each module, in CSR form (module m's
  /// pair indices are pair_adjacency_[pair_offsets_[m] ..
  /// pair_offsets_[m + 1])) — flat arrays, no per-module pointer chase.
  std::vector<int> pair_offsets_;
  std::vector<int> pair_adjacency_;
  std::vector<PairEntry> pair_entries_;  ///< parallel to conflicting_pairs()
  long long overlap_total_ = 0;

  /// Prefix-summed defect counts over the defects' bounding rect
  /// (multiplicity-aware: duplicate defect points count twice, matching
  /// CostEvaluator::defect_usage).
  Rect defect_bounds_;
  std::vector<long long> defect_sums_;  ///< (w+1) x (h+1), row-major
  std::vector<long long> module_defect_hits_;
  long long defect_total_ = 0;

  /// Current (committed) placement bounding box. Proposals price a
  /// candidate box with a short scan over `footprints_` (cheaper than
  /// maintaining extent structures at placement sizes).
  Rect bbox_;

  std::vector<bool> outside_;  ///< per module: footprint leaves the canvas
  int outside_count_ = 0;

  /// FTI caches; engaged only when weights_.beta != 0 (the evaluator
  /// owns the temporal adjacency its patches fan out over).
  FtiIncrementalEvaluator fti_;
  long long covered_cells_ = 0;

  /// One demand edge with its cached weighted distance, mirroring
  /// PairEntry: indices and cost on one cache line for the pricing loop.
  struct LinkEntry {
    RouteLink link;
    long long cost = 0;
  };

  /// Routing-pressure caches, CSR adjacency by incident module (a link
  /// touches its target and, when on-chip, its source). Engaged — built
  /// and priced — only when weights_.gamma != 0 and the evaluator carried
  /// links; otherwise every container stays empty and proposals skip the
  /// term entirely, exactly like FTI at beta = 0.
  std::vector<LinkEntry> link_entries_;
  std::vector<int> link_offsets_;
  std::vector<int> link_adjacency_;
  std::vector<std::uint64_t> link_stamp_;
  long long pressure_total_ = 0;

  /// Weighted distance of one link under the current `footprints_`.
  long long link_cost(const LinkEntry& entry) const;

  /// Proposal-scoped dedup stamps (pairs and links), reused so the hot
  /// path allocates nothing. 64-bit: a 32-bit stamp would wrap within
  /// minutes at the delta engine's proposal rate and silently skip pair
  /// re-pricing.
  std::vector<std::uint64_t> pair_stamp_;
  std::uint64_t stamp_ = 0;

  double value_ = 0.0;
  Pending pending_;
};

}  // namespace dmfb
