// Implementation of every persistent format in the repo (byte-level spec:
// docs/FORMAT.md). Two formats share the serialize.h primitives:
//
//   GeoBlock payload ("GBLK", v3):  level, schema width, projection domain,
//       key range, global aggregate, parallel cell-aggregate arrays, build
//       filter, every array on an 8-byte boundary of the payload.
//   BlockSet container ("GBST", v3): a CRC-checksummed manifest (shard
//       boundaries, row windows, state row counts, payload table, change
//       number) followed by one GeoBlock payload per shard, each
//       individually checksummed, then a checksummed pending-updates
//       section that is always K zero counts.
//
// The WAL ("GWAL") lives in io/update_log.cc.
#include "core/serialize.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>

#include "core/block_set.h"
#include "core/geoblock.h"
#include "core/memory_governor.h"
#include "core/scan_kernels.h"

namespace geoblocks::core {

namespace serialize {

uint32_t Crc32(std::string_view bytes) {
  return kernels::Kernels().crc32_update(
      0, reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
}

}  // namespace serialize

namespace {

using serialize::WritePod;

/// Zero bytes that take a payload position `pos` to the next multiple of 8.
size_t PadTo8(size_t pos) { return (8 - pos % 8) % 8; }

/// Writes a GBLK payload, counting its bytes so each array can be padded
/// to an 8-byte boundary of the payload.
class PayloadWriter {
 public:
  explicit PayloadWriter(std::ostream& out) : out_(out) {}

  template <typename T>
  void Pod(const T& value) {
    WritePod(out_, value);
    pos_ += sizeof(T);
  }

  /// u64 element count, the elements' raw bytes, then zero pad bytes.
  template <typename T>
  void Array(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    Pod<uint64_t>(values.size());
    out_.write(reinterpret_cast<const char*>(values.data()),
               static_cast<std::streamsize>(values.size_bytes()));
    pos_ += values.size_bytes();
    Align();
  }

  void Align() {
    static constexpr char kZeros[8] = {};
    const size_t n = PadTo8(pos_);
    out_.write(kZeros, static_cast<std::streamsize>(n));
    pos_ += n;
  }

 private:
  std::ostream& out_;
  size_t pos_ = 0;
};

/// Payload reader over 8-aligned bytes that `owner` keeps alive: every
/// array is a view of them.
class ByteReader {
 public:
  ByteReader(std::shared_ptr<const void> owner, std::string_view bytes)
      : owner_(std::move(owner)), bytes_(bytes) {}

  template <typename T>
  T Pod() {
    if (bytes_.size() - pos_ < sizeof(T)) {
      throw std::runtime_error("geoblocks: truncated stream");
    }
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
  CellArray<T> Array(uint64_t count) {
    if (count > (bytes_.size() - pos_) / sizeof(T)) {
      throw std::runtime_error("geoblocks: truncated stream");
    }
    const T* at = reinterpret_cast<const T*>(bytes_.data() + pos_);
    pos_ += count * sizeof(T);
    if (count == 0) return CellArray<T>();
    return CellArray<T>(owner_, at, count);
  }

  /// Consumes `n` pad bytes, which must be zero.
  void Pad(size_t n) {
    if (bytes_.size() - pos_ < n) {
      throw std::runtime_error("geoblocks: truncated stream");
    }
    for (size_t i = 0; i < n; ++i, ++pos_) {
      if (bytes_[pos_] != 0) {
        throw std::runtime_error("geoblocks: non-zero pad byte in GeoBlock");
      }
    }
  }

  size_t pos() const { return pos_; }

 private:
  std::shared_ptr<const void> owner_;
  std::string_view bytes_;
  size_t pos_ = 0;
};

/// Reads a length-prefixed array and the zero pad after it, so the next
/// field starts on an 8-byte boundary.
template <typename T>
CellArray<T> ReadArray(ByteReader& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  const uint64_t count = in.Pod<uint64_t>();
  if (count > serialize::kMaxPayloadBytes / sizeof(T)) {
    throw std::runtime_error("geoblocks: implausible vector size");
  }
  CellArray<T> values = in.Array<T>(count);
  in.Pad(PadTo8(in.pos()));
  return values;
}

void WriteFilter(PayloadWriter& out, const storage::Filter& filter) {
  out.Pod<uint64_t>(filter.predicates().size());
  for (const storage::Predicate& p : filter.predicates()) {
    out.Pod<int32_t>(p.column);
    out.Pod<uint32_t>(static_cast<uint32_t>(p.op));
    out.Pod<double>(p.value);
  }
}

storage::Filter ReadFilter(ByteReader& in, size_t num_columns) {
  const uint64_t n = in.Pod<uint64_t>();
  if (n > serialize::kMaxPayloadBytes / 16) {
    throw std::runtime_error("geoblocks: implausible predicate count");
  }
  std::vector<storage::Predicate> predicates;
  for (uint64_t i = 0; i < n; ++i) {
    storage::Predicate p;
    p.column = in.Pod<int32_t>();
    if (p.column < 0 || static_cast<size_t>(p.column) >= num_columns) {
      throw std::runtime_error(
          "geoblocks: filter predicate column out of range");
    }
    const uint32_t op = in.Pod<uint32_t>();
    if (op > static_cast<uint32_t>(storage::CompareOp::kNe)) {
      throw std::runtime_error("geoblocks: invalid filter operator");
    }
    p.op = static_cast<storage::CompareOp>(op);
    p.value = in.Pod<double>();
    predicates.push_back(p);
  }
  return storage::Filter(std::move(predicates));
}

}  // namespace

// ---------------------------------------------------------------------------
// GeoBlock payload ("GBLK")
// ---------------------------------------------------------------------------

void GeoBlock::WriteTo(std::ostream& out) const {
  // The currently published MVCC version is what persists: a block that
  // received updates writes the updated aggregates (docs/FORMAT.md,
  // "Updates and re-serialization").
  const std::shared_ptr<const BlockState> state = StateSnapshot();
  WriteStateTo(out, *state);
}

void GeoBlock::WriteStateTo(std::ostream& out, const BlockState& state) const {
  serialize::RequireLittleEndianHost();
  PayloadWriter w(out);
  w.Pod(serialize::kBlockMagic);
  w.Pod(serialize::kBlockVersion);
  w.Pod<int32_t>(state.header.level);
  w.Align();
  w.Pod<uint64_t>(num_columns_);
  const geo::Rect domain = projection_.domain();
  w.Pod(domain.min.x);
  w.Pod(domain.min.y);
  w.Pod(domain.max.x);
  w.Pod(domain.max.y);
  w.Pod<uint64_t>(state.header.min_cell);
  w.Pod<uint64_t>(state.header.max_cell);
  w.Pod<uint64_t>(state.header.global.count);
  w.Array(std::span<const ColumnAggregate>(state.header.global.columns));
  w.Array(state.cells.span());
  w.Array(state.offsets.span());
  w.Array(state.counts.span());
  w.Array(state.min_keys.span());
  w.Array(state.max_keys.span());
  w.Array(state.column_aggs.span());
  WriteFilter(w, filter_);
}

GeoBlock GeoBlock::ReadFrom(std::shared_ptr<const void> owner,
                            std::string_view bytes, size_t* consumed) {
  serialize::RequireLittleEndianHost();
  // The payload puts every array on an 8-byte boundary of itself, so
  // 8-aligned bytes make each one a view aligned for its element type.
  if (reinterpret_cast<uintptr_t>(bytes.data()) % 8 != 0) {
    throw std::runtime_error("geoblocks: GeoBlock bytes are not 8-aligned");
  }
  ByteReader in(std::move(owner), bytes);
  if (in.Pod<uint32_t>() != serialize::kBlockMagic) {
    throw std::runtime_error("geoblocks: not a GeoBlock stream");
  }
  if (in.Pod<uint32_t>() != serialize::kBlockVersion) {
    throw std::runtime_error("geoblocks: unsupported GeoBlock version");
  }
  GeoBlock block;
  auto state = std::make_shared<BlockState>();
  state->header.level = in.Pod<int32_t>();
  if (state->header.level < 0 ||
      state->header.level > cell::CellId::kMaxLevel) {
    throw std::runtime_error("geoblocks: GeoBlock level out of range");
  }
  in.Pad(PadTo8(in.pos()));
  block.level_ = state->header.level;
  block.num_columns_ = in.Pod<uint64_t>();
  if (block.num_columns_ >
      serialize::kMaxPayloadBytes / sizeof(ColumnAggregate)) {
    throw std::runtime_error("geoblocks: implausible GeoBlock schema width");
  }
  state->num_columns = block.num_columns_;
  geo::Rect domain;
  domain.min.x = in.Pod<double>();
  domain.min.y = in.Pod<double>();
  domain.max.x = in.Pod<double>();
  domain.max.y = in.Pod<double>();
  block.projection_ = geo::Projection(domain);
  state->header.min_cell = in.Pod<uint64_t>();
  state->header.max_cell = in.Pod<uint64_t>();
  state->header.global.count = in.Pod<uint64_t>();
  const CellArray<ColumnAggregate> global =
      ReadArray<ColumnAggregate>(in);
  state->header.global.columns.assign(global.begin(), global.end());
  state->cells = ReadArray<uint64_t>(in);
  state->offsets = ReadArray<uint32_t>(in);
  state->counts = ReadArray<uint32_t>(in);
  state->min_keys = ReadArray<uint64_t>(in);
  state->max_keys = ReadArray<uint64_t>(in);
  state->column_aggs = ReadArray<ColumnAggregate>(in);
  block.filter_ = ReadFilter(in, block.num_columns_);
  const size_t n = state->cells.size();
  if (state->header.global.columns.size() != block.num_columns_ ||
      state->offsets.size() != n || state->counts.size() != n ||
      state->min_keys.size() != n || state->max_keys.size() != n ||
      state->column_aggs.size() != n * block.num_columns_) {
    throw std::runtime_error("geoblocks: inconsistent GeoBlock arrays");
  }
  block.InstallState(std::move(state));
  *consumed = in.pos();
  return block;
}

// ---------------------------------------------------------------------------
// BlockSet container ("GBST"): manifest + shard payloads
// ---------------------------------------------------------------------------
//
// Manifest layout (all little-endian; docs/FORMAT.md §BlockSet manifest):
//
//   offset            size      field
//   0                 4         magic "GBST"
//   4                 4         format version (3)
//   8                 4         flags (reserved, 0)
//   12                4         align_level (i32)
//   16                8         shard count K (u64)
//   24                8         total_rows (u64)
//   32                8         change_number (u64)
//   40                (K+1)*8   boundaries[0..K] (u64 leaf keys)
//   40+(K+1)*8        K*16      shard windows: (row_offset u64, num_rows u64)
//   ...               K*8       state_rows: each shard's post-update global
//                               tuple count (u64) — the exact cross-check
//                               target for that shard's payload
//   ...               K*16      payload table: (byte_offset u64, byte_size
//                               u64), offsets relative to the end of the
//                               manifest, contiguous
//   ...               K*4       payload CRC-32s (u32)
//   ...               4*(K%2)   zero pad: the next field, and the manifest
//                               end, fall on a multiple of 8
//   ...               8         pending_bytes (u64): size of the
//                               pending-updates section after the payloads
//   ...               4         pending section CRC-32 (u32)
//   ...               4         manifest CRC-32 over all preceding bytes
//
// Manifest size: serialize::ManifestBytes(K) = 64 + 52*K bytes rounded up
// to a multiple of 8. Shard payloads (each a multiple of 8 bytes) follow
// back to back, so each starts 8-aligned in a page-aligned mapping; then
// the pending-updates section: K zero u64 tuple counts. A reader rejects
// any other section.

void BlockSet::WriteTo(std::ostream& out) const {
  serialize::RequireLittleEndianHost();
  const size_t k = blocks_.size();
  if (k == 0 || boundaries_.size() != k + 1 || windows_.size() != k) {
    throw std::logic_error(
        "BlockSet::WriteTo: set has no manifest metadata (a "
        "default-constructed set cannot be persisted)");
  }

  // Serialize every shard payload first: the manifest needs their sizes
  // and checksums. Each shard's state is pinned ONCE and both the payload
  // and the manifest's state_rows cross-check come from that same pinned
  // version, so the two can never disagree — not even on a lazily opened
  // set where the governor may evict (unpublish) the shard between the
  // two reads. Cold shards are faulted in first (a tombstone has no
  // aggregates to persist).
  std::vector<std::string> payloads;
  std::vector<uint64_t> state_rows;
  payloads.reserve(k);
  state_rows.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    const std::shared_ptr<const BlockState> state =
        ResidentState(i, /*rebalance=*/false);
    std::ostringstream payload(std::ios::binary);
    blocks_[i]->WriteStateTo(payload, *state);
    payloads.push_back(std::move(payload).str());
    state_rows.push_back(state->header.global.count);
  }

  // The pending-updates section is always empty (K zero counts): every
  // committed tuple, new-region ones included, lives in a shard payload.
  const std::string pending_section(k * sizeof(uint64_t), '\0');

  std::ostringstream manifest(std::ios::binary);
  WritePod(manifest, serialize::kSetMagic);
  WritePod(manifest, serialize::kSetVersion);
  WritePod<uint32_t>(manifest, 0);  // flags (reserved)
  WritePod<int32_t>(manifest, align_level_);
  WritePod<uint64_t>(manifest, k);
  WritePod<uint64_t>(manifest, total_rows_);
  WritePod<uint64_t>(manifest, change_number());
  for (const uint64_t b : boundaries_) WritePod<uint64_t>(manifest, b);
  for (const ShardWindow& w : windows_) {
    WritePod<uint64_t>(manifest, w.offset);
    WritePod<uint64_t>(manifest, w.num_rows);
  }
  for (const uint64_t rows : state_rows) WritePod<uint64_t>(manifest, rows);
  uint64_t byte_offset = 0;
  for (const std::string& p : payloads) {
    WritePod<uint64_t>(manifest, byte_offset);
    WritePod<uint64_t>(manifest, p.size());
    byte_offset += p.size();
  }
  for (const std::string& p : payloads) {
    WritePod<uint32_t>(manifest, serialize::Crc32(p));
  }
  if (k % 2 == 1) WritePod<uint32_t>(manifest, 0);  // pad
  WritePod<uint64_t>(manifest, pending_section.size());
  WritePod<uint32_t>(manifest, serialize::Crc32(pending_section));
  const std::string manifest_bytes = std::move(manifest).str();
  out.write(manifest_bytes.data(),
            static_cast<std::streamsize>(manifest_bytes.size()));
  WritePod<uint32_t>(out, serialize::Crc32(manifest_bytes));
  for (const std::string& p : payloads) {
    out.write(p.data(), static_cast<std::streamsize>(p.size()));
  }
  out.write(pending_section.data(),
            static_cast<std::streamsize>(pending_section.size()));
  // Persisting a lazy set faulted every cold shard in; hand the overshoot
  // back to the governor now that the payloads are on their way out.
  if (governor_ != nullptr) governor_->EnsureBudget();
}

namespace serialize {

SetManifest ReadSetManifest(std::istream& in) {
  RequireLittleEndianHost();
  // Fixed 40-byte prefix: enough to learn K and size the rest.
  char prefix[40];
  in.read(prefix, sizeof(prefix));
  if (!in) throw std::runtime_error("geoblocks: truncated BlockSet manifest");
  uint32_t magic, version, flags;
  SetManifest m;
  std::memcpy(&magic, prefix + 0, 4);
  std::memcpy(&version, prefix + 4, 4);
  std::memcpy(&flags, prefix + 8, 4);
  std::memcpy(&m.align_level, prefix + 12, 4);
  std::memcpy(&m.shard_count, prefix + 16, 8);
  std::memcpy(&m.total_rows, prefix + 24, 8);
  std::memcpy(&m.change_number, prefix + 32, 8);
  if (magic != kSetMagic) {
    throw std::runtime_error("geoblocks: not a BlockSet stream");
  }
  if (version != kSetVersion) {
    throw std::runtime_error("geoblocks: unsupported BlockSet version");
  }
  if (flags != 0) {
    // All flag bits are reserved; a set bit means a capability this reader
    // does not implement (docs/FORMAT.md §Versioning).
    throw std::runtime_error("geoblocks: unsupported BlockSet flags");
  }
  const uint64_t k = m.shard_count;
  if (k == 0 || k > kMaxManifestShards) {
    throw std::runtime_error("geoblocks: implausible BlockSet shard count");
  }

  // Read the rest of the manifest and verify its checksum before trusting
  // any field.
  const size_t rest_bytes = ManifestBytes(k) - sizeof(prefix);
  std::string manifest(sizeof(prefix) + rest_bytes, '\0');
  std::memcpy(manifest.data(), prefix, sizeof(prefix));
  in.read(manifest.data() + sizeof(prefix),
          static_cast<std::streamsize>(rest_bytes));
  if (!in) throw std::runtime_error("geoblocks: truncated BlockSet manifest");
  m.manifest_bytes = manifest.size();
  uint32_t stored_crc;
  std::memcpy(&stored_crc, manifest.data() + manifest.size() - 4, 4);
  const std::string_view checksummed(manifest.data(), manifest.size() - 4);
  if (Crc32(checksummed) != stored_crc) {
    throw std::runtime_error("geoblocks: BlockSet manifest checksum mismatch");
  }

  const auto read_u64_at = [&](size_t offset) {
    uint64_t v;
    std::memcpy(&v, manifest.data() + offset, 8);
    return v;
  };
  const auto read_u32_at = [&](size_t offset) {
    uint32_t v;
    std::memcpy(&v, manifest.data() + offset, 4);
    return v;
  };

  size_t pos = sizeof(prefix);
  m.boundaries.resize(k + 1);
  for (size_t i = 0; i <= k; ++i, pos += 8) {
    m.boundaries[i] = read_u64_at(pos);
    if (i > 0 && m.boundaries[i] < m.boundaries[i - 1]) {
      throw std::runtime_error(
          "geoblocks: BlockSet manifest boundaries not ascending");
    }
  }
  m.window_offsets.resize(k);
  m.window_rows.resize(k);
  uint64_t next_row = 0;
  for (size_t i = 0; i < k; ++i, pos += 16) {
    m.window_offsets[i] = read_u64_at(pos);
    m.window_rows[i] = read_u64_at(pos + 8);
    if (m.window_offsets[i] != next_row) {
      throw std::runtime_error(
          "geoblocks: BlockSet manifest windows not contiguous");
    }
    next_row += m.window_rows[i];
  }
  if (next_row != m.total_rows) {
    throw std::runtime_error(
        "geoblocks: BlockSet manifest row total does not match the windows");
  }
  m.state_rows.resize(k);
  for (size_t i = 0; i < k; ++i, pos += 8) m.state_rows[i] = read_u64_at(pos);
  m.payload_offsets.resize(k);
  m.payload_sizes.resize(k);
  uint64_t next_byte = 0;
  for (size_t i = 0; i < k; ++i, pos += 16) {
    m.payload_offsets[i] = read_u64_at(pos);
    m.payload_sizes[i] = read_u64_at(pos + 8);
    if (m.payload_offsets[i] != next_byte ||
        m.payload_sizes[i] > kMaxPayloadBytes || m.payload_sizes[i] % 8 != 0) {
      throw std::runtime_error(
          "geoblocks: BlockSet manifest payload table is inconsistent");
    }
    next_byte += m.payload_sizes[i];
  }
  m.payload_bytes = next_byte;
  m.payload_crcs.resize(k);
  for (size_t i = 0; i < k; ++i, pos += 4) {
    m.payload_crcs[i] = read_u32_at(pos);
  }
  if (k % 2 == 1) {
    if (read_u32_at(pos) != 0) {
      throw std::runtime_error("geoblocks: non-zero pad in BlockSet manifest");
    }
    pos += 4;
  }
  m.pending_bytes = read_u64_at(pos);
  pos += 8;
  m.pending_crc = read_u32_at(pos);
  if (m.pending_bytes != k * sizeof(uint64_t)) {
    throw std::runtime_error(
        "geoblocks: BlockSet pending section size is not one count per "
        "shard");
  }
  return m;
}

void CheckPendingSection(std::string_view section, const SetManifest& m) {
  if (Crc32(section) != m.pending_crc) {
    throw std::runtime_error(
        "geoblocks: BlockSet pending section checksum mismatch");
  }
  if (section.find_first_not_of('\0') != std::string_view::npos) {
    throw std::runtime_error("geoblocks: BlockSet pending section not empty");
  }
}

}  // namespace serialize

GeoBlock BlockSet::ParseShardPayload(std::shared_ptr<const void> owner,
                                     std::string_view payload,
                                     const serialize::SetManifest& m,
                                     size_t s, const GeoBlock* reference) {
  // Every payload byte is verified before any is trusted — also on each
  // re-fault, since the decoded arrays are views of these very bytes.
  if (serialize::Crc32(payload) != m.payload_crcs[s]) {
    throw std::runtime_error(
        "geoblocks: BlockSet shard payload checksum mismatch");
  }
  size_t consumed = 0;
  GeoBlock block = GeoBlock::ReadFrom(std::move(owner), payload, &consumed);
  if (consumed != payload.size()) {
    throw std::runtime_error(
        "geoblocks: BlockSet shard payload has trailing bytes");
  }
  if (reference != nullptr &&
      (block.level() != reference->level() ||
       block.num_columns() != reference->num_columns())) {
    throw std::runtime_error(
        "geoblocks: BlockSet shards disagree on level or schema width");
  }
  // Exact manifest ↔ payload cross-check: the manifest records each
  // shard's post-update row count (state_rows), so the payload's global
  // count must equal it — no permissive `>=` (docs/FORMAT.md, "Updates
  // and re-serialization").
  if (block.header().global.count != m.state_rows[s]) {
    throw std::runtime_error(
        "geoblocks: BlockSet shard row count does not match its manifest "
        "state rows");
  }
  // And on a never-updated set without a filter, every window row was
  // aggregated, so the state rows must equal the window exactly.
  if (m.change_number == 0 && block.filter().IsTrue() &&
      m.state_rows[s] != m.window_rows[s]) {
    throw std::runtime_error(
        "geoblocks: BlockSet shard row count does not match its manifest "
        "window");
  }
  return block;
}

BlockSet BlockSet::FromManifest(const serialize::SetManifest& m) {
  const uint64_t k = m.shard_count;
  BlockSet set;
  set.align_level_ = m.align_level;
  set.total_rows_ = m.total_rows;
  set.change_number_.store(m.change_number, std::memory_order_relaxed);
  set.boundaries_ = m.boundaries;
  set.windows_.resize(k);
  for (size_t i = 0; i < k; ++i) {
    set.windows_[i] = {m.window_offsets[i], m.window_rows[i]};
  }
  set.blocks_.reserve(k);
  set.writers_.reserve(k);
  set.residency_.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    // Each shard starts as a tombstone shell: "mapped, not materialized".
    // The block object (and its snapshot cell) is the one readers, caches,
    // and queued merges will hold for the set's whole life — hydration and
    // eviction republish INTO it, never replace it.
    auto shell = std::make_unique<GeoBlock>();
    shell->EvictState();
    set.blocks_.push_back(std::move(shell));
    set.writers_.push_back(std::make_shared<ShardWriter>());
    set.residency_.push_back(
        std::make_shared<ShardResidency>(/*materialized=*/false));
  }
  return set;
}

void BlockSet::HydrateShard(size_t s, std::shared_ptr<const void> owner,
                            std::string_view payload,
                            const serialize::SetManifest& m) const {
  // First hydration adopts the payload's configuration (level, schema,
  // projection, filter) and seeds the routing hull; a re-fault after
  // eviction must not rewrite them — readers may be looking, and the
  // manifest cross-checks prove the re-loaded values are identical.
  ShardResidency& res = *residency_[s];
  const bool first = !res.hull_known.load(std::memory_order_relaxed);
  blocks_[s]->AdoptDeserialized(
      ParseShardPayload(std::move(owner), payload, m, s,
                        s == 0 ? nullptr : blocks_[0].get()),
      /*adopt_config=*/first);
  res.hull_known.store(true, std::memory_order_release);
  res.resident.store(true, std::memory_order_release);
}

BlockSet BlockSet::ReadFrom(std::istream& in) {
  serialize::RequireLittleEndianHost();
  // The eager and lazy (OpenMapped) loaders share the manifest decoder,
  // FromManifest and HydrateShard; they differ only in when payload bytes
  // are touched (here: immediately; lazily: on first route to the shard).
  const serialize::SetManifest m = serialize::ReadSetManifest(in);
  BlockSet set = FromManifest(m);

  // Shard payloads, in shard order (shard 0 donates the configuration the
  // others are cross-checked against): each is read whole into its own
  // 8-aligned buffer and parsed in isolation, so a payload that lies about
  // its length cannot bleed into its neighbor. The shard's arrays are
  // views of that buffer, which they keep alive.
  for (size_t i = 0; i < m.shard_count; ++i) {
    const std::shared_ptr<char> payload =
        serialize::NewPayloadBuffer(m.payload_sizes[i]);
    in.read(payload.get(), static_cast<std::streamsize>(m.payload_sizes[i]));
    if (!in) {
      throw std::runtime_error("geoblocks: truncated BlockSet shard payload");
    }
    set.HydrateShard(i, payload,
                     std::string_view(payload.get(), m.payload_sizes[i]), m);
  }
  set.level_ = set.blocks_.front()->level();
  set.projection_ = set.blocks_.front()->projection();

  std::string pending_section(m.pending_bytes, '\0');
  in.read(pending_section.data(),
          static_cast<std::streamsize>(pending_section.size()));
  if (!in) {
    throw std::runtime_error(
        "geoblocks: truncated BlockSet pending section");
  }
  serialize::CheckPendingSection(pending_section, m);
  return set;
}

}  // namespace geoblocks::core
