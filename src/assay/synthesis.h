// synthesis.h — schedule rendering for the architectural-level synthesis
// step (binding + scheduling, assay/binder.h and assay/scheduler.h) that
// the paper assumes has already run before placement ("placement follows
// architectural-level synthesis in the proposed synthesis flow", §4).
#pragma once

#include <string>

#include "assay/schedule.h"

namespace dmfb {

/// Renders a schedule as an ASCII Gantt chart (one row per module, '#'
/// during the module's active interval) — the shape of the paper's Fig. 6.
std::string render_gantt(const Schedule& schedule, double seconds_per_column = 1.0);

}  // namespace dmfb
