#include "workload/exact.h"

#include <cmath>

#include "cell/coverer.h"
#include "core/scan_kernels.h"

namespace geoblocks::workload {

uint64_t ExactCount(const storage::SortedDataset& data,
                    const geo::Polygon& polygon, int fine_level) {
  const geo::Polygon unit = data.projection().ToUnit(polygon);
  std::vector<cell::CoveringCell> covering;
  cell::GetCovering(unit, fine_level, &covering);

  // Boundary cells refine through the batched point-in-polygon kernel over
  // the contiguous x/y arrays (bit-identical to Polygon::Contains per row).
  const core::kernels::UnitTransform transform =
      core::kernels::UnitTransform::From(data.projection());
  const core::kernels::PreparedPolygon prepared =
      core::kernels::PreparedPolygon::From(unit);
  const core::kernels::KernelTable& kern = core::kernels::Kernels();

  uint64_t count = 0;
  for (const cell::CoveringCell& cc : covering) {
    const auto [first, last] = data.EqualRangeForCell(cc.cell);
    if (cc.interior) {
      count += last - first;
      continue;
    }
    count += kern.count_polygon_hits(data.xs().data() + first,
                                     data.ys().data() + first, last - first,
                                     transform, prepared);
  }
  return count;
}

double RelativeError(uint64_t approx, uint64_t exact) {
  if (exact == 0) return static_cast<double>(approx);
  const double a = static_cast<double>(approx);
  const double e = static_cast<double>(exact);
  return std::abs(a - e) / e;
}

}  // namespace geoblocks::workload
