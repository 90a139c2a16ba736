#pragma once

// An independent reading of the GBLK v3 payload layout (docs/FORMAT.md
// §GeoBlock payload), for tests that check where the writer puts each array
// and pad, and that turn a v3 payload back into the packed v2/v1 layouts.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace geoblocks::core::testing {

/// Where the fields of one v3 payload lie, as byte offsets from its start.
struct PayloadLayout {
  /// First data byte of each length-prefixed array, in payload order:
  /// global columns, cells, offsets, counts, min_keys, max_keys,
  /// column_aggs.
  std::vector<size_t> array_offsets;
  /// Element count of each array, in the same order.
  std::vector<uint64_t> array_counts;
  /// Every pad byte.
  std::vector<size_t> pad_offsets;
  /// The filter's predicate count field.
  size_t filter_offset = 0;
  /// One past the last payload byte.
  size_t end = 0;
};

/// Element sizes of the seven arrays (ColumnAggregate is three doubles).
inline constexpr size_t kPayloadElementBytes[7] = {24, 8, 4, 4, 8, 8, 24};

/// Walks a v3 payload by the documented layout.
inline PayloadLayout WalkPayloadV3(std::string_view payload) {
  const auto u64_at = [&](size_t offset) {
    uint64_t v;
    std::memcpy(&v, payload.data() + offset, 8);
    return v;
  };
  PayloadLayout layout;
  // magic, version, level, then the pad that puts num_columns at 16.
  for (size_t i = 12; i < 16; ++i) layout.pad_offsets.push_back(i);
  // num_columns, the domain's four doubles, min/max cell, global count.
  size_t pos = 16 + 8 + 32 + 8 + 8 + 8;
  for (const size_t elem : kPayloadElementBytes) {
    const uint64_t count = u64_at(pos);
    layout.array_counts.push_back(count);
    layout.array_offsets.push_back(pos + 8);
    pos += 8 + count * elem;
    while (pos % 8 != 0) layout.pad_offsets.push_back(pos++);
  }
  layout.filter_offset = pos;
  layout.end = pos + 8 + u64_at(pos) * 16;
  return layout;
}

/// The packed v2 (or, for a filter-less block, v1) form of a v3 payload:
/// the same fields with every pad removed and the version patched.
inline std::string PackedPayload(std::string_view v3, uint32_t version) {
  const PayloadLayout layout = WalkPayloadV3(v3);
  std::string out;
  size_t pad = 0;
  for (size_t i = 0; i < layout.end; ++i) {
    if (pad < layout.pad_offsets.size() && layout.pad_offsets[pad] == i) {
      ++pad;
      continue;
    }
    out.push_back(v3[i]);
  }
  std::memcpy(out.data() + 4, &version, 4);
  if (version == 1) out.resize(out.size() - 8);  // the empty filter's count
  return out;
}

}  // namespace geoblocks::core::testing
