#pragma once

/// \file serialize.h
/// The binary (de)serialization toolkit shared by every persistent format in
/// the repo: GeoBlock shard payloads and the BlockSet container (manifest +
/// shard payloads). The byte-level layout of each
/// format is specified in docs/FORMAT.md; this header owns the constants and
/// primitives that document references (magic numbers, format versions, the
/// checksum definition, and the little-endian plain-old-data encoding).
///
/// All formats are **little-endian**. The primitives below write host-order
/// bytes, so every entry point calls RequireLittleEndianHost() first and
/// refuses to run on a big-endian host rather than silently producing files
/// other machines cannot read.

#include <bit>
#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <vector>

namespace geoblocks::core::serialize {

// ---------------------------------------------------------------------------
// Magic numbers and format versions (see docs/FORMAT.md §Versioning)
// ---------------------------------------------------------------------------

/// First four bytes of a GeoBlock payload: "GBLK" read as a little-endian
/// uint32.
inline constexpr uint32_t kBlockMagic = 0x4B4C4247;
/// First four bytes of a BlockSet manifest: "GBST".
inline constexpr uint32_t kSetMagic = 0x54534247;
/// First four bytes of an update log (WAL) file: "GWAL".
inline constexpr uint32_t kWalMagic = 0x4C415747;

/// Current GeoBlock payload version. v3 puts every field after the level,
/// and every array, on an 8-byte boundary of the payload (zero pad bytes),
/// so a decoder can use the arrays in place. v2 appended the block's filter
/// predicates so refinement after BlockSet::AttachDataset re-aggregates
/// exactly the rows the original build did. v2 and v1 (no filter field,
/// read as an empty match-all filter) payloads are still read.
inline constexpr uint32_t kBlockVersion = 3;
/// Oldest GeoBlock payload version ReadFrom still accepts.
inline constexpr uint32_t kBlockMinVersion = 1;
/// Current BlockSet manifest version, the only one a reader accepts. v3
/// pads the manifest to a multiple of 8 bytes and carries GBLK v3
/// payloads, so every payload array is aligned in a page-aligned mapping.
/// v2 added the set's committed change number, a per-shard state-row array
/// (restoring the exact manifest ↔ payload row cross-check that v1's
/// permissive `>=` had lost), and a pending-updates section (written
/// empty; a reader commits any tuples it holds).
inline constexpr uint32_t kSetVersion = 3;
/// Current update-log (WAL) file version.
inline constexpr uint32_t kWalVersion = 1;
/// Byte size of the WAL file header (docs/FORMAT.md §Update log).
inline constexpr uint64_t kWalHeaderBytes = 24;
/// Byte size of one WAL record header, excluding the payload.
inline constexpr uint64_t kWalRecordHeaderBytes = 24;
/// Sanity cap on one WAL record's payload (1 GiB); larger length fields are
/// treated as corruption (a torn or damaged record), ending replay.
inline constexpr uint64_t kMaxWalRecordBytes = uint64_t{1} << 30;

/// Sanity cap on the shard count of a BlockSet manifest; larger values are
/// treated as corruption rather than an allocation request.
inline constexpr uint64_t kMaxManifestShards = uint64_t{1} << 20;

/// Sanity cap on any single length-prefixed array or shard payload
/// (16 GiB); larger values are treated as corruption.
inline constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 34;

// ---------------------------------------------------------------------------
// Host requirements
// ---------------------------------------------------------------------------

/// Every persistent format in this repo is little-endian, and the POD
/// primitives below write host-order bytes.
///
/// @throws std::runtime_error on big- or mixed-endian hosts, where the raw
///     writes would produce files that violate docs/FORMAT.md.
inline void RequireLittleEndianHost() {
  if constexpr (std::endian::native != std::endian::little) {
    throw std::runtime_error(
        "geoblocks: serialized formats are little-endian; this host is not");
  }
}

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

/// CRC-32/ISO-HDLC (the zlib/IEEE 802.3 CRC): polynomial 0xEDB88320
/// (reflected), initial value 0xFFFFFFFF, final XOR 0xFFFFFFFF.
/// Check value: Crc32("123456789") == 0xCBF43926. Computed by the dispatched
/// `kernels::KernelTable::crc32_update` (slicing-by-8 or PCLMULQDQ folding;
/// both give the same value).
///
/// @param bytes The exact byte range to checksum.
/// @return The final (post-XOR) CRC value as stored on disk.
uint32_t Crc32(std::string_view bytes);

// ---------------------------------------------------------------------------
// Little-endian POD primitives
// ---------------------------------------------------------------------------

/// Writes the raw bytes of a trivially copyable value.
template <typename T>
void WritePod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// A heap buffer for `size` payload bytes, 8-aligned so a decoder can use
/// its arrays in place; the bytes are uninitialized.
inline std::shared_ptr<char> NewPayloadBuffer(size_t size) {
  std::shared_ptr<uint64_t[]> words =
      std::make_shared_for_overwrite<uint64_t[]>(size / 8 + 1);
  char* bytes = reinterpret_cast<char*>(words.get());
  return std::shared_ptr<char>(std::move(words), bytes);
}

// ---------------------------------------------------------------------------
// BlockSet manifest
// ---------------------------------------------------------------------------

/// The decoded, CRC-verified and structurally validated BlockSet manifest
/// (docs/FORMAT.md §BlockSet manifest): everything a reader needs to locate
/// and cross-check each shard payload *without* touching payload bytes.
/// Shared by the eager loader (BlockSet::ReadFrom) and the lazy one
/// (BlockSet::OpenMapped) so the two paths can never drift in what they
/// validate up front.
struct SetManifest {
  int32_t align_level = -1;
  uint64_t shard_count = 0;
  uint64_t total_rows = 0;
  uint64_t change_number = 0;
  /// Shard boundary keys, ascending; size shard_count + 1.
  std::vector<uint64_t> boundaries;
  /// Per-shard base-row windows (contiguous; sum == total_rows).
  std::vector<uint64_t> window_offsets;
  std::vector<uint64_t> window_rows;
  /// Per-shard post-update global tuple counts — the exact cross-check
  /// target for each shard's payload.
  std::vector<uint64_t> state_rows;
  /// Payload table: byte offsets relative to the end of the manifest,
  /// contiguous, each size capped at kMaxPayloadBytes.
  std::vector<uint64_t> payload_offsets;
  std::vector<uint64_t> payload_sizes;
  /// Per-shard payload CRC-32s (validated against each payload when it is
  /// read — at load time on the eager path, at fault time on the lazy one).
  std::vector<uint32_t> payload_crcs;
  uint64_t pending_bytes = 0;
  uint32_t pending_crc = 0;
  /// Total manifest size including its trailing CRC:
  /// ManifestBytes(shard_count).
  /// Payload offsets are relative to this position in the stream.
  uint64_t manifest_bytes = 0;
  /// Sum of payload_sizes (the payload region's total extent).
  uint64_t payload_bytes = 0;
};

/// Byte size of a K-shard BlockSet manifest, its trailing CRC included:
/// 64 + 52·K bytes of fields plus the zero pad that rounds them up to a
/// multiple of 8.
inline constexpr uint64_t ManifestBytes(uint64_t shards) {
  return (64 + 52 * shards + 7) / 8 * 8;
}

/// Reads and fully validates a BlockSet manifest from the current stream
/// position: magic, version, flags, the manifest CRC, ascending boundaries,
/// contiguous windows summing to total_rows, and a contiguous payload
/// table. On return the stream is positioned at the first payload byte.
///
/// @param in Source stream (open in binary mode).
/// @return The decoded manifest.
/// @throws std::runtime_error on truncation, bad magic, an unsupported
///     version or flags, a checksum mismatch, a non-zero pad, or
///     structural inconsistency.
SetManifest ReadSetManifest(std::istream& in);

}  // namespace geoblocks::core::serialize
