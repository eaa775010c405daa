#include "assay/synthesis.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace dmfb {

std::string render_gantt(const Schedule& schedule, double seconds_per_column) {
  std::ostringstream os;
  const double makespan = schedule.makespan_s();
  const int columns =
      static_cast<int>(std::ceil(makespan / seconds_per_column));

  std::size_t label_width = 0;
  for (const auto& m : schedule.modules()) {
    label_width = std::max(label_width, m.label.size());
  }

  for (const auto& m : schedule.modules()) {
    os << m.label << std::string(label_width - m.label.size(), ' ') << " |";
    for (int c = 0; c < columns; ++c) {
      const double t0 = c * seconds_per_column;
      const double t1 = t0 + seconds_per_column;
      const bool active = m.start_s < t1 && t0 < m.end_s;
      os << (active ? '#' : ' ');
    }
    os << "|  " << m.start_s << "s - " << m.end_s << "s  ("
       << m.spec.footprint_width() << 'x' << m.spec.footprint_height()
       << " cells, " << m.spec.name << ")\n";
  }
  os << std::string(label_width, ' ') << " 0s";
  if (columns > 4) {
    os << std::string(static_cast<std::size_t>(columns) - 2, ' ')
       << makespan << "s";
  }
  os << '\n';
  return os.str();
}

}  // namespace dmfb
