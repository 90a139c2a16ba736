#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace geoblocks::core {

/// Pre-computed non-holistic aggregates of one column over some set of
/// tuples: minimum, maximum and sum. Together with the tuple count this is
/// enough to answer count/sum/min/max/avg (Section 3.4).
struct ColumnAggregate {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double sum = 0.0;

  void Add(double v) {
    if (v < min) min = v;
    if (v > max) max = v;
    sum += v;
  }

  void Merge(const ColumnAggregate& o) {
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
    sum += o.sum;
  }

  friend bool operator==(const ColumnAggregate& a,
                         const ColumnAggregate& b) = default;
};

/// A tuple count plus a ColumnAggregate per schema column; the payload of a
/// cell aggregate, of the global block header, and of a cached trie entry.
struct AggregateVector {
  uint64_t count = 0;
  std::vector<ColumnAggregate> columns;

  explicit AggregateVector(size_t num_columns = 0) : columns(num_columns) {}

  void Merge(const AggregateVector& o) {
    count += o.count;
    for (size_t c = 0; c < columns.size(); ++c) columns[c].Merge(o.columns[c]);
  }

  friend bool operator==(const AggregateVector& a,
                         const AggregateVector& b) = default;
};

/// Aggregate functions supported by the SELECT query (Section 2).
enum class AggFn { kCount, kSum, kMin, kMax, kAvg };

std::string ToString(AggFn fn);

/// One requested output aggregate: a function over a column (the column is
/// ignored for kCount).
struct AggSpec {
  AggFn fn = AggFn::kCount;
  int column = 0;
};

/// The user-defined subset of available aggregates a SELECT query extracts.
/// The evaluation's "number of aggregates" (Figure 10) is specs().size().
class AggregateRequest {
 public:
  AggregateRequest() = default;
  explicit AggregateRequest(std::vector<AggSpec> specs)
      : specs_(std::move(specs)) {}

  /// count + sum over the first `n - 1` columns: a simple way to request
  /// exactly `n` aggregates (cycling over `num_columns` columns).
  static AggregateRequest FirstN(size_t n, size_t num_columns);

  void Add(AggFn fn, int column = 0) { specs_.push_back({fn, column}); }
  const std::vector<AggSpec>& specs() const { return specs_; }
  size_t size() const { return specs_.size(); }

 private:
  std::vector<AggSpec> specs_;
};

/// Result of a SELECT query: one value per requested aggregate plus the
/// number of tuples aggregated.
struct QueryResult {
  uint64_t count = 0;
  std::vector<double> values;
};

/// Streaming combiner for a request: cell aggregates (pre-computed) and raw
/// rows (on-the-fly baselines) can both be folded in. Combination cost is
/// proportional to the number of requested aggregates, which is what
/// Figure 10 measures.
class Accumulator {
 public:
  /// Requests of up to this many aggregates accumulate in inline storage —
  /// constructing an Accumulator for them performs no heap allocation
  /// (query hot paths construct one per query).
  static constexpr size_t kInlineSpecs = 8;

  explicit Accumulator(const AggregateRequest* request)
      : request_(request), num_specs_(request->size()) {
    if (num_specs_ > kInlineSpecs) overflow_values_.resize(num_specs_);
    double* v = values();
    for (size_t s = 0; s < num_specs_; ++s) {
      v[s] = InitialValue(request_->specs()[s].fn);
    }
  }

  /// Folds in a pre-computed aggregate of `count` tuples whose per-column
  /// aggregates are `cols[column]`.
  void AddAggregate(uint64_t count, const ColumnAggregate* cols) {
    count_ += count;
    double* v = values();
    for (size_t s = 0; s < num_specs_; ++s) {
      const AggSpec& spec = request_->specs()[s];
      const ColumnAggregate& a = cols[spec.column];
      switch (spec.fn) {
        case AggFn::kCount: break;
        case AggFn::kSum:
        case AggFn::kAvg: v[s] += a.sum; break;
        case AggFn::kMin:
          if (a.min < v[s]) v[s] = a.min;
          break;
        case AggFn::kMax:
          if (a.max > v[s]) v[s] = a.max;
          break;
      }
    }
  }

  /// Folds in `n` consecutive pre-computed cell aggregates in cell order:
  /// counts[i] tuples with per-column aggregates at cols[i * num_columns].
  /// Equivalent to calling AddAggregate for each cell — bit-identically so,
  /// since SELECT results must not depend on how a covering's cell run is
  /// decomposed (single block vs shards). Counts sum through the vectorized
  /// kernel (exact integers); double folds stay strictly sequential.
  /// Defined in aggregate.cc to keep scan_kernels.h out of this header.
  void AddCellRange(const uint32_t* counts, const ColumnAggregate* cols,
                    size_t n, size_t num_columns);

  /// Folds in one raw tuple; `value_of(column)` reads its attributes.
  template <typename ValueFn>
  void AddRow(const ValueFn& value_of) {
    ++count_;
    double* vals = values();
    for (size_t s = 0; s < num_specs_; ++s) {
      const AggSpec& spec = request_->specs()[s];
      switch (spec.fn) {
        case AggFn::kCount: break;
        case AggFn::kSum:
        case AggFn::kAvg: vals[s] += value_of(spec.column); break;
        case AggFn::kMin: {
          const double v = value_of(spec.column);
          if (v < vals[s]) vals[s] = v;
          break;
        }
        case AggFn::kMax: {
          const double v = value_of(spec.column);
          if (v > vals[s]) vals[s] = v;
          break;
        }
      }
    }
  }

  /// Finalizes into a caller-owned result, reusing `out->values`' capacity:
  /// a warmed result object makes finishing allocation-free (the reason the
  /// *Into query variants exist). Bit-identical to Finish().
  void FinishInto(QueryResult* out) const {
    out->count = count_;
    const double* v = values();
    out->values.assign(v, v + num_specs_);
    for (size_t s = 0; s < num_specs_; ++s) {
      switch (request_->specs()[s].fn) {
        case AggFn::kCount:
          out->values[s] = static_cast<double>(count_);
          break;
        case AggFn::kAvg:
          out->values[s] = count_ == 0 ? 0.0 : out->values[s] / count_;
          break;
        default: break;
      }
    }
  }

  QueryResult Finish() const {
    QueryResult r;
    FinishInto(&r);
    return r;
  }

 private:
  static double InitialValue(AggFn fn) {
    switch (fn) {
      case AggFn::kMin: return std::numeric_limits<double>::infinity();
      case AggFn::kMax: return -std::numeric_limits<double>::infinity();
      default: return 0.0;
    }
  }

  /// The running values: inline for requests of up to kInlineSpecs
  /// aggregates, heap-backed beyond. Recomputed on access (no stored
  /// pointer), so the implicitly defined copy/move members stay correct.
  double* values() {
    return num_specs_ <= kInlineSpecs ? inline_values_
                                      : overflow_values_.data();
  }
  const double* values() const {
    return num_specs_ <= kInlineSpecs ? inline_values_
                                      : overflow_values_.data();
  }

  const AggregateRequest* request_;
  uint64_t count_ = 0;
  size_t num_specs_ = 0;
  double inline_values_[kInlineSpecs];
  std::vector<double> overflow_values_;
};

}  // namespace geoblocks::core
