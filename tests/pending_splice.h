#pragma once

// Builds a GBST file whose pending-updates section is non-empty, the way
// files written before new-region tuples committed inline could look:
// WriteTo now always writes K zero counts there, so tests splice tuples in
// and fix `pending_bytes`, `pending_crc` and the manifest CRC
// (docs/FORMAT.md §Pending section).

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/block_set.h"
#include "core/geoblock.h"
#include "core/serialize.h"
#include "core/update_codec.h"
#include "storage/sharded_dataset.h"

namespace geoblocks::core::testing {

/// Byte size of a K-shard GBST manifest, its trailing CRC included.
inline size_t ManifestBytes(size_t shards) { return 64 + 52 * shards; }

/// Replaces the (empty) pending section of `file`, a WriteTo image of
/// `set`, with `tuples` buffered at the shards the set routes them to, in
/// batch order.
inline std::string SplicePendingSection(
    const std::string& file, const BlockSet& set,
    std::span<const GeoBlock::UpdateTuple> tuples) {
  const size_t k = set.num_shards();
  const size_t manifest = ManifestBytes(k);
  uint64_t old_bytes;
  std::memcpy(&old_bytes, file.data() + manifest - 16, sizeof(old_bytes));

  std::vector<std::vector<GeoBlock::UpdateTuple>> per_shard(k);
  for (const GeoBlock::UpdateTuple& t : tuples) {
    const uint64_t key =
        cell::CellId::FromPoint(set.projection().ToUnit(t.location)).id();
    per_shard[storage::ShardForKey(set.boundaries(), key)].push_back(t);
  }
  std::string section;
  for (const std::vector<GeoBlock::UpdateTuple>& shard : per_shard) {
    const uint64_t count = shard.size();
    section.append(reinterpret_cast<const char*>(&count), sizeof(count));
    serialize::EncodeUpdateTuples(&section, shard);
  }

  std::string out = file.substr(0, file.size() - old_bytes) + section;
  const uint64_t new_bytes = section.size();
  const uint32_t section_crc = serialize::Crc32(section);
  std::memcpy(out.data() + manifest - 16, &new_bytes, sizeof(new_bytes));
  std::memcpy(out.data() + manifest - 8, &section_crc, sizeof(section_crc));
  const uint32_t manifest_crc =
      serialize::Crc32(std::string_view(out).substr(0, manifest - 4));
  std::memcpy(out.data() + manifest - 4, &manifest_crc, sizeof(manifest_crc));
  return out;
}

/// @return True when `file`, a WriteTo image of a K-shard set, ends in an
///     empty pending section: `pending_bytes` is 8·K and the K counts are
///     zero.
inline bool PendingSectionIsEmpty(const std::string& file, size_t shards) {
  uint64_t bytes;
  std::memcpy(&bytes, file.data() + ManifestBytes(shards) - 16, sizeof(bytes));
  if (bytes != 8 * shards || file.size() < bytes) return false;
  for (size_t i = file.size() - bytes; i < file.size(); ++i) {
    if (file[i] != '\0') return false;
  }
  return true;
}

}  // namespace geoblocks::core::testing
