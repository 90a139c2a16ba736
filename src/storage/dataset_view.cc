#include "storage/dataset_view.h"

#include <algorithm>

#include "core/scan_kernels.h"

namespace geoblocks::storage {

namespace {

/// A shared_ptr that points at `data` but owns nothing (empty control
/// block): the aliasing-constructor idiom for borrowed datasets.
std::shared_ptr<const SortedDataset> BorrowPtr(const SortedDataset& data) {
  return std::shared_ptr<const SortedDataset>(
      std::shared_ptr<const SortedDataset>(), &data);
}

}  // namespace

DatasetView::DatasetView(std::shared_ptr<const SortedDataset> data,
                         size_t first, size_t last) {
  data_ = std::move(data);
  const size_t n = data_ ? data_->num_rows() : 0;
  last = std::min(last, n);
  first = std::min(first, last);
  offset_ = first;
  length_ = last - first;
}

DatasetView DatasetView::All(std::shared_ptr<const SortedDataset> data) {
  const size_t n = data ? data->num_rows() : 0;
  return DatasetView(std::move(data), 0, n);
}

DatasetView DatasetView::Window(std::shared_ptr<const SortedDataset> data,
                                size_t first, size_t last) {
  return DatasetView(std::move(data), first, last);
}

DatasetView DatasetView::Unowned(const SortedDataset& data) {
  return DatasetView(BorrowPtr(data), 0, data.num_rows());
}

DatasetView DatasetView::UnownedWindow(const SortedDataset& data, size_t first,
                                       size_t last) {
  return DatasetView(BorrowPtr(data), first, last);
}

size_t DatasetView::LowerBound(uint64_t k) const {
  const std::span<const uint64_t> s = keys();
  return core::kernels::LowerBoundU64(s.data(), s.size(), k);
}

size_t DatasetView::UpperBound(uint64_t k) const {
  const std::span<const uint64_t> s = keys();
  return core::kernels::UpperBoundU64(s.data(), s.size(), k);
}

std::pair<size_t, size_t> DatasetView::EqualRangeForCell(
    cell::CellId cell) const {
  return {LowerBound(cell.RangeMin().id()), UpperBound(cell.RangeMax().id())};
}

SortedDataset DatasetView::Materialize() const {
  if (!data_) return SortedDataset();
  return data_->Slice(offset_, offset_ + length_);
}

}  // namespace geoblocks::storage
