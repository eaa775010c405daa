#include "core/incremental_cost.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace dmfb {

IncrementalPlacementState::IncrementalPlacementState(
    Placement placement, const CostEvaluator& evaluator)
    : placement_(std::move(placement)),
      weights_(evaluator.weights()),
      defects_(evaluator.defects()),
      fti_(evaluator.fti_options()) {
  const int count = placement_.module_count();
  const auto& pairs = placement_.conflicting_pairs();

  footprints_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    footprints_.push_back(placement_.module(i).footprint());
  }

  pair_entries_.assign(pairs.size(), PairEntry{});
  pair_offsets_.assign(static_cast<std::size_t>(count) + 1, 0);
  for (const auto& [i, j] : pairs) {
    ++pair_offsets_[static_cast<std::size_t>(i) + 1];
    ++pair_offsets_[static_cast<std::size_t>(j) + 1];
  }
  for (int i = 0; i < count; ++i) {
    pair_offsets_[static_cast<std::size_t>(i) + 1] +=
        pair_offsets_[static_cast<std::size_t>(i)];
  }
  pair_adjacency_.assign(2 * pairs.size(), 0);
  {
    std::vector<int> cursor(pair_offsets_.begin(), pair_offsets_.end() - 1);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const auto& [i, j] = pairs[p];
      pair_adjacency_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(i)]++)] = static_cast<int>(p);
      pair_adjacency_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(j)]++)] = static_cast<int>(p);
      pair_entries_[p].i = i;
      pair_entries_[p].j = j;
      pair_entries_[p].overlap =
          footprints_[static_cast<std::size_t>(i)].overlap_area(
              footprints_[static_cast<std::size_t>(j)]);
      overlap_total_ += pair_entries_[p].overlap;
    }
  }
  pair_stamp_.assign(pairs.size(), 0);

  // Prefix-summed defect counts over the defects' bounding rect (the
  // evaluator already maintains the rect), so a footprint's hit count is
  // one O(1) rectangle query.
  defect_bounds_ = evaluator.defect_bounds();
  if (!defects_.empty()) {
    const int w = defect_bounds_.width;
    const int h = defect_bounds_.height;
    std::vector<long long> counts(static_cast<std::size_t>(w) * h, 0);
    for (const Point& d : defects_) {
      counts[static_cast<std::size_t>(d.y - defect_bounds_.y) * w +
             (d.x - defect_bounds_.x)] += 1;
    }
    defect_sums_.assign(static_cast<std::size_t>(w + 1) * (h + 1), 0);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        defect_sums_[static_cast<std::size_t>(y + 1) * (w + 1) + (x + 1)] =
            defect_sums_[static_cast<std::size_t>(y) * (w + 1) + (x + 1)] +
            defect_sums_[static_cast<std::size_t>(y + 1) * (w + 1) + x] -
            defect_sums_[static_cast<std::size_t>(y) * (w + 1) + x] +
            counts[static_cast<std::size_t>(y) * w + x];
      }
    }
  }

  module_defect_hits_.assign(static_cast<std::size_t>(count), 0);
  outside_.assign(static_cast<std::size_t>(count), false);
  for (int i = 0; i < count; ++i) {
    const Rect& fp = footprints_[static_cast<std::size_t>(i)];
    module_defect_hits_[static_cast<std::size_t>(i)] = defect_hits(fp);
    defect_total_ += module_defect_hits_[static_cast<std::size_t>(i)];
    if (!fp.within_bounds(placement_.canvas_width(),
                          placement_.canvas_height())) {
      outside_[static_cast<std::size_t>(i)] = true;
      ++outside_count_;
    }
  }
  bbox_ = placement_.bounding_box();

  // Routing-pressure caches (gamma != 0 only): CSR adjacency of links by
  // incident module, built like the pair adjacency above.
  if (weights_.gamma != 0.0 && !evaluator.route_links().empty()) {
    const auto& links = evaluator.route_links();
    link_offsets_.assign(static_cast<std::size_t>(count) + 1, 0);
    link_entries_.reserve(links.size());
    for (const RouteLink& link : links) {
      if (link.target_module < 0 || link.target_module >= count ||
          link.source_module >= count) {
        throw std::invalid_argument(
            "IncrementalPlacementState: route link module index out of "
            "range (links extracted for a different schedule?)");
      }
      link_entries_.push_back(LinkEntry{link, 0});
      ++link_offsets_[static_cast<std::size_t>(link.target_module) + 1];
      if (link.source_module >= 0 &&
          link.source_module != link.target_module) {
        ++link_offsets_[static_cast<std::size_t>(link.source_module) + 1];
      }
    }
    for (int i = 0; i < count; ++i) {
      link_offsets_[static_cast<std::size_t>(i) + 1] +=
          link_offsets_[static_cast<std::size_t>(i)];
    }
    link_adjacency_.assign(
        static_cast<std::size_t>(link_offsets_.back()), 0);
    std::vector<int> cursor(link_offsets_.begin(), link_offsets_.end() - 1);
    for (std::size_t p = 0; p < link_entries_.size(); ++p) {
      const RouteLink& link = link_entries_[p].link;
      link_adjacency_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(link.target_module)]++)] =
          static_cast<int>(p);
      if (link.source_module >= 0 &&
          link.source_module != link.target_module) {
        link_adjacency_[static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(link.source_module)]++)] =
            static_cast<int>(p);
      }
    }
    for (auto& entry : link_entries_) {
      entry.cost = link_cost(entry);
      pressure_total_ += entry.cost;
    }
    link_stamp_.assign(link_entries_.size(), 0);
  }

  if (weights_.beta != 0.0) {
    FtiIncrementalEvaluator::Backup scratch;
    fti_.update(placement_, bbox_, nullptr, 0, scratch);
    covered_cells_ = fti_.covered_cells();
  }
  value_ = value_from_tallies();
}

CostBreakdown IncrementalPlacementState::breakdown() const {
  CostBreakdown result;
  result.area_cells = bbox_.area();
  result.overlap_cells = overlap_total_;
  result.defect_cells = defect_total_;
  if (weights_.beta != 0.0) {
    const long long total = bbox_.area();
    result.fti =
        total == 0 ? 0.0 : static_cast<double>(covered_cells_) / total;
  }
  result.route_pressure = pressure_total_;
  result.value = value_;
  return result;
}

double IncrementalPlacementState::value_of(long long area_cells,
                                           long long overlap_cells,
                                           long long defect_cells,
                                           double fti,
                                           long long route_pressure) const {
  // Exactly CostEvaluator::evaluate's expression (term order included —
  // base objective, then the gamma term appended outside it), so copy-
  // and delta-engine costs agree bit for bit.
  double value = weights_.alpha * static_cast<double>(area_cells) +
                 weights_.lambda_overlap * static_cast<double>(overlap_cells) +
                 weights_.lambda_defect * static_cast<double>(defect_cells) -
                 weights_.beta * fti;
  if (weights_.gamma != 0.0) {
    value += weights_.gamma * static_cast<double>(route_pressure);
  }
  return value;
}

double IncrementalPlacementState::value_from_tallies() const {
  double fti = 0.0;
  if (weights_.beta != 0.0) {
    const long long total = bbox_.area();
    fti = total == 0 ? 0.0 : static_cast<double>(covered_cells_) / total;
  }
  return value_of(bbox_.area(), overlap_total_, defect_total_, fti,
                  pressure_total_);
}

long long IncrementalPlacementState::link_cost(const LinkEntry& entry) const {
  const Rect& target =
      footprints_[static_cast<std::size_t>(entry.link.target_module)];
  const Rect& source =
      entry.link.source_module >= 0
          ? footprints_[static_cast<std::size_t>(entry.link.source_module)]
          : target;
  return entry.link.weight *
         detail::route_link_distance(entry.link, source, target,
                                     placement_.canvas_width(),
                                     placement_.canvas_height());
}

long long IncrementalPlacementState::defect_hits(const Rect& footprint) const {
  if (defects_.empty()) return 0;
  const Rect r = footprint.intersection(defect_bounds_);
  if (r.empty()) return 0;
  const int w = defect_bounds_.width;
  const int x1 = r.x - defect_bounds_.x;
  const int y1 = r.y - defect_bounds_.y;
  const int x2 = x1 + r.width;
  const int y2 = y1 + r.height;
  const auto at = [&](int x, int y) {
    return defect_sums_[static_cast<std::size_t>(y) * (w + 1) + x];
  };
  return at(x2, y2) - at(x1, y2) - at(x2, y1) + at(x1, y1);
}

double IncrementalPlacementState::propose(const PlacementMove& move) {
  // Clamped displacements frequently land exactly where the module
  // already is (window span 1 at low temperature); such a move changes
  // nothing, so the delta is 0 without touching a single cache — the FTI
  // path in particular skips its whole patch.
  bool noop = true;
  for (int c = 0; c < move.count && noop; ++c) {
    const PlacedModule& m =
        placement_.modules()[static_cast<std::size_t>(move.changes[c].index)];
    noop = m.anchor == move.changes[c].anchor &&
           m.rotated == move.changes[c].rotated;
  }
  return propose_known(move, noop);
}

double IncrementalPlacementState::propose_random(int window_span,
                                                 const MoveOptions& options,
                                                 Rng& rng) {
  // Exactly generate_random_move_with_span's draw order, fused with the
  // no-op determination (anchors and orientations are at hand anyway).
  PlacementMove move;
  bool noop = true;
  const int count = placement_.module_count();
  if (count > 0) {
    const bool single =
        count < 2 || rng.next_bool(options.single_move_probability);
    const bool rotate = rng.next_bool(options.rotate_probability);
    if (single) {
      const int index = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(count)));
      const PlacedModule& m =
          placement_.modules()[static_cast<std::size_t>(index)];
      bool rotated = m.rotated;
      const bool flipped =
          rotate && detail::flipped_orientation(placement_, index, rotated);
      const Point target{m.anchor.x + rng.next_int(-window_span, window_span),
                         m.anchor.y + rng.next_int(-window_span, window_span)};
      move.kind = flipped ? MoveKind::kDisplaceRotate : MoveKind::kDisplace;
      move.count = 1;
      move.changes[0] = ModuleMove{
          index, detail::clamp_anchor(placement_, index, rotated, target),
          rotated};
      noop = move.changes[0].anchor == m.anchor && rotated == m.rotated;
    } else {
      const int i = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(count)));
      int j = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(count - 1)));
      if (j >= i) ++j;
      const PlacedModule& mi =
          placement_.modules()[static_cast<std::size_t>(i)];
      const PlacedModule& mj =
          placement_.modules()[static_cast<std::size_t>(j)];
      bool rotated_i = mi.rotated;
      bool rotated_j = mj.rotated;
      bool flipped = false;
      if (rotate) {
        // Move (iv): at least one module of the pair changes orientation.
        if (rng.next_bool(0.5)) {
          flipped = detail::flipped_orientation(placement_, i, rotated_i);
        } else {
          flipped = detail::flipped_orientation(placement_, j, rotated_j);
        }
      }
      move.kind = flipped ? MoveKind::kSwapRotate : MoveKind::kSwap;
      move.count = 2;
      move.changes[0] = ModuleMove{
          i, detail::clamp_anchor(placement_, i, rotated_i, mj.anchor),
          rotated_i};
      move.changes[1] = ModuleMove{
          j, detail::clamp_anchor(placement_, j, rotated_j, mi.anchor),
          rotated_j};
      noop = move.changes[0].anchor == mi.anchor &&
             rotated_i == mi.rotated &&
             move.changes[1].anchor == mj.anchor && rotated_j == mj.rotated;
    }
  }
  return propose_known(move, noop);
}

double IncrementalPlacementState::propose_known(const PlacementMove& move,
                                                bool noop) {
  assert(!pending_.active);

  Pending& pending = pending_;
  pending.active = true;
  pending.applied = false;
  pending.new_pair_overlaps.clear();
  pending.new_link_costs.clear();

  if (noop) {
    pending.exact = true;
    pending.move.kind = move.kind;  // telemetry: last_move_kind()
    pending.move.count = 0;
    pending.staged = Staged{overlap_total_, defect_total_, pressure_total_,
                            outside_count_, bbox_, value_};
    return 0.0;
  }

  // Price the move against hypothetical footprints without touching
  // placement or caches. commit() applies the staged values; revert()
  // just drops them.
  pending.move = move;

  long long cand_overlap = overlap_total_;
  long long cand_defect = defect_total_;
  long long cand_pressure = pressure_total_;
  int cand_outside = outside_count_;
  // Does the committed bounding box survive the move? (An interior module
  // moving within the box cannot change it; only then is the scan below
  // skippable.)
  bool bbox_survives = true;

  for (int c = 0; c < move.count; ++c) {
    const ModuleMove& change = move.changes[c];
    const std::size_t idx = static_cast<std::size_t>(change.index);
    const Rect fp = footprint_rect(placement_.module(change.index).spec,
                                   change.anchor, change.rotated);
    // footprints_ takes the hypothetical value now so the overlap and
    // bbox pricing below read it branch-free; revert() restores.
    pending.old_footprints[c] = footprints_[idx];
    footprints_[idx] = fp;

    const Rect& old_fp = pending.old_footprints[c];
    bbox_survives = bbox_survives &&
                    old_fp.x > bbox_.x && old_fp.y > bbox_.y &&
                    old_fp.right() < bbox_.right() &&
                    old_fp.top() < bbox_.top() && bbox_.contains(fp);

    const bool outside = !fp.within_bounds(placement_.canvas_width(),
                                           placement_.canvas_height());
    pending.new_outside[c] = outside;
    cand_outside +=
        static_cast<int>(outside) - static_cast<int>(outside_[idx]);
    long long hits = 0;
    if (!defects_.empty()) {
      hits = defect_hits(fp);
      cand_defect += hits - module_defect_hits_[idx];
    }
    pending.new_defect_hits[c] = hits;
  }

  const auto price_pairs_of = [&](int module_index, bool stamped) {
    const std::size_t module = static_cast<std::size_t>(module_index);
    const int begin = pair_offsets_[module];
    const int end = pair_offsets_[module + 1];
    for (int a = begin; a < end; ++a) {
      const int p = pair_adjacency_[static_cast<std::size_t>(a)];
      const std::size_t q = static_cast<std::size_t>(p);
      if (stamped) {
        if (pair_stamp_[q] == stamp_) continue;
        pair_stamp_[q] = stamp_;
      }
      const PairEntry& entry = pair_entries_[q];
      const long long overlap =
          footprints_[static_cast<std::size_t>(entry.i)].overlap_area(
              footprints_[static_cast<std::size_t>(entry.j)]);
      pending.new_pair_overlaps.emplace_back(p, overlap);
      cand_overlap += overlap - entry.overlap;
    }
  };
  if (move.count == 1) {
    // A single-module move cannot visit a pair twice: no stamp dedup.
    price_pairs_of(move.changes[0].index, /*stamped=*/false);
  } else {
    ++stamp_;
    for (int c = 0; c < move.count; ++c) {
      price_pairs_of(move.changes[c].index, /*stamped=*/true);
    }
  }

  // Re-price the routing-pressure links incident to the touched modules
  // (a link between both touched modules updates once, via the stamp).
  if (!link_entries_.empty()) {
    const auto price_links_of = [&](int module_index, bool stamped) {
      const std::size_t module = static_cast<std::size_t>(module_index);
      const int begin = link_offsets_[module];
      const int end = link_offsets_[module + 1];
      for (int a = begin; a < end; ++a) {
        const int p = link_adjacency_[static_cast<std::size_t>(a)];
        const std::size_t q = static_cast<std::size_t>(p);
        if (stamped) {
          if (link_stamp_[q] == stamp_) continue;
          link_stamp_[q] = stamp_;
        }
        const long long cost = link_cost(link_entries_[q]);
        pending.new_link_costs.emplace_back(p, cost);
        cand_pressure += cost - link_entries_[q].cost;
      }
    };
    if (move.count == 1) {
      price_links_of(move.changes[0].index, /*stamped=*/false);
    } else {
      // Reuses the stamp the pair pass above advanced; link_stamp_ is a
      // separate array, so every entry still reads as unvisited.
      for (int c = 0; c < move.count; ++c) {
        price_links_of(move.changes[c].index, /*stamped=*/true);
      }
    }
  }

  // Candidate bounding box: unchanged for interior moves, else a short
  // branch-free scan over the (already updated) footprints. At placement
  // sizes this beats maintaining extent structures, and a rejected
  // proposal writes almost nothing.
  Rect cand_bbox = bbox_;
  const int count = placement_.module_count();
  if (!bbox_survives && count > 0) {
    int left = std::numeric_limits<int>::max();
    int right = std::numeric_limits<int>::min();
    int bottom = std::numeric_limits<int>::max();
    int top = std::numeric_limits<int>::min();
    for (const Rect& fp : footprints_) {
      left = std::min(left, fp.x);
      right = std::max(right, fp.right());
      bottom = std::min(bottom, fp.y);
      top = std::max(top, fp.top());
    }
    cand_bbox = Rect{left, bottom, right - left, top - bottom};
  }

  // FTI is priced at its best case (exact only when beta = 0, where the
  // term vanishes): FTI lies in [0, 1], so this is a floor on the delta.
  const double fti_best = weights_.beta > 0.0 ? 1.0 : 0.0;
  pending.exact = weights_.beta == 0.0;
  pending.staged =
      Staged{cand_overlap, cand_defect, cand_pressure, cand_outside,
             cand_bbox,
             value_of(cand_bbox.area(), cand_overlap, cand_defect, fti_best,
                      cand_pressure)};
  return pending.staged.value - value_;
}

template <bool kKeepOld>
void IncrementalPlacementState::apply_staged() {
  // `state` takes `staged`; with kKeepOld, `staged` takes the old value.
  const auto take = [](auto& state, auto& staged) {
    if constexpr (kKeepOld) {
      std::swap(state, staged);
    } else {
      state = staged;
    }
  };
  Pending& pending = pending_;
  for (int c = 0; c < pending.move.count; ++c) {
    ModuleMove& change = pending.move.changes[c];
    const std::size_t idx = static_cast<std::size_t>(change.index);
    if constexpr (kKeepOld) {
      const PlacedModule& m = placement_.modules()[idx];
      const ModuleMove previous{change.index, m.anchor, m.rotated};
      placement_.set_position(change.index, change.anchor, change.rotated);
      change = previous;
      const bool outside = outside_[idx];
      outside_[idx] = pending.new_outside[c];
      pending.new_outside[c] = outside;
    } else {
      placement_.set_position(change.index, change.anchor, change.rotated);
      outside_[idx] = pending.new_outside[c];
    }
    take(module_defect_hits_[idx], pending.new_defect_hits[c]);
  }
  for (auto& [p, overlap] : pending.new_pair_overlaps) {
    take(pair_entries_[static_cast<std::size_t>(p)].overlap, overlap);
  }
  for (auto& [p, cost] : pending.new_link_costs) {
    take(link_entries_[static_cast<std::size_t>(p)].cost, cost);
  }
  Staged& staged = pending.staged;
  take(overlap_total_, staged.overlap_total);
  take(defect_total_, staged.defect_total);
  take(pressure_total_, staged.pressure_total);
  take(outside_count_, staged.outside_count);
  take(bbox_, staged.bbox);
  take(value_, staged.value);
}

double IncrementalPlacementState::resolve() {
  Pending& pending = pending_;
  assert(pending.active && !pending.exact);

  // The staged tallies are exact for every term but FTI: apply them, then
  // patch the evaluator with exactly what the move touched — each moved
  // footprint's symmetric difference dirties its temporal neighbours'
  // occupancy/anchor grids, and the per-cell coverage state follows.
  // revert() inverts all of it bit-exactly.
  apply_staged</*kKeepOld=*/true>();
  pending.applied = true;
  pending.exact = true;
  FtiIncrementalEvaluator::MovedModule fti_moves[2];
  for (int c = 0; c < pending.move.count; ++c) {
    const int index = pending.move.changes[c].index;
    fti_moves[c].index = index;
    fti_moves[c].from = pending.old_footprints[c];
    fti_moves[c].to = footprints_[static_cast<std::size_t>(index)];
  }
  pending.old_covered = covered_cells_;
  fti_.update(placement_, bbox_, fti_moves, pending.move.count,
              pending.fti_backup);
  covered_cells_ = fti_.covered_cells();
  value_ = value_from_tallies();
  return value_ - pending.staged.value;
}

double IncrementalPlacementState::commit() {
  Pending& pending = pending_;
  assert(pending.active);
  if (!pending.exact) resolve();
  pending.active = false;
  if (!pending.applied) apply_staged</*kKeepOld=*/false>();
  return value_;
}

void IncrementalPlacementState::revert() {
  Pending& pending = pending_;
  assert(pending.active);
  pending.active = false;
  if (pending.applied) {
    fti_.restore(pending.fti_backup);
    covered_cells_ = pending.old_covered;
    apply_staged</*kKeepOld=*/true>();
  }
  // Reverse order: were a move ever to touch one module twice, the
  // first-saved (pre-move) footprint must win.
  for (int c = pending.move.count - 1; c >= 0; --c) {
    footprints_[static_cast<std::size_t>(pending.move.changes[c].index)] =
        pending.old_footprints[c];
  }
}

}  // namespace dmfb
