#include "core/aggregate.h"

#include "core/scan_kernels.h"

namespace geoblocks::core {

void Accumulator::AddCellRange(const uint32_t* counts,
                               const ColumnAggregate* cols, size_t n,
                               size_t num_columns) {
  count_ += kernels::SumCounts(counts, n);
  double* v = values();
  for (size_t s = 0; s < num_specs_; ++s) {
    const AggSpec& spec = request_->specs()[s];
    const ColumnAggregate* a = cols + spec.column;
    switch (spec.fn) {
      case AggFn::kCount:
        break;
      case AggFn::kSum:
      case AggFn::kAvg: {
        double acc = v[s];
        for (size_t i = 0; i < n; ++i, a += num_columns) acc += a->sum;
        v[s] = acc;
        break;
      }
      case AggFn::kMin: {
        double m = v[s];
        for (size_t i = 0; i < n; ++i, a += num_columns) {
          if (a->min < m) m = a->min;
        }
        v[s] = m;
        break;
      }
      case AggFn::kMax: {
        double m = v[s];
        for (size_t i = 0; i < n; ++i, a += num_columns) {
          if (a->max > m) m = a->max;
        }
        v[s] = m;
        break;
      }
    }
  }
}

std::string ToString(AggFn fn) {
  switch (fn) {
    case AggFn::kCount: return "count";
    case AggFn::kSum: return "sum";
    case AggFn::kMin: return "min";
    case AggFn::kMax: return "max";
    case AggFn::kAvg: return "avg";
  }
  return "?";
}

AggregateRequest AggregateRequest::FirstN(size_t n, size_t num_columns) {
  AggregateRequest req;
  if (n == 0) return req;
  req.Add(AggFn::kCount);
  static constexpr AggFn kCycle[] = {AggFn::kSum, AggFn::kMin, AggFn::kMax,
                                     AggFn::kAvg};
  size_t fn_idx = 0;
  for (size_t i = 1; i < n; ++i) {
    req.Add(kCycle[fn_idx % 4],
            num_columns == 0 ? 0 : static_cast<int>((i - 1) % num_columns));
    ++fn_idx;
  }
  return req;
}

}  // namespace geoblocks::core
