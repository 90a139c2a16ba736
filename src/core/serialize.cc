// Implementation of every persistent format in the repo (byte-level spec:
// docs/FORMAT.md). Two formats share the serialize.h primitives:
//
//   GeoBlock payload ("GBLK", v2):  level, schema width, projection domain,
//       key range, global aggregate, parallel cell-aggregate arrays, build
//       filter (v2; v1 payloads without the filter are still read).
//   BlockSet container ("GBST", v2): a CRC-checksummed manifest (shard
//       boundaries, row windows, state row counts, payload table, change
//       number) followed by one GeoBlock payload per shard, each
//       individually checksummed, then a checksummed pending-updates
//       section (written empty; a reader commits any tuples an older
//       writer left there).
//
// The WAL ("GWAL") lives in io/update_log.cc; it shares the update-tuple
// codec (core/update_codec.h) with the pending section here.
#include "core/serialize.h"

#include <cstring>
#include <sstream>
#include <string>

#include "core/block_set.h"
#include "core/geoblock.h"
#include "core/memory_governor.h"
#include "core/scan_kernels.h"
#include "core/update_codec.h"
#include "io/mapped_file.h"

namespace geoblocks::core {

namespace serialize {

uint32_t Crc32(std::string_view bytes) {
  return kernels::Kernels().crc32_update(
      0, reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
}

}  // namespace serialize

namespace {

using serialize::ReadPod;
using serialize::ReadVector;
using serialize::WritePod;
using serialize::WriteVector;

void WriteAggregateVector(std::ostream& out, const AggregateVector& agg) {
  WritePod<uint64_t>(out, agg.count);
  WriteVector(out, agg.columns);
}

AggregateVector ReadAggregateVector(std::istream& in) {
  AggregateVector agg;
  agg.count = ReadPod<uint64_t>(in);
  agg.columns = ReadVector<ColumnAggregate>(in);
  return agg;
}

void WriteFilter(std::ostream& out, const storage::Filter& filter) {
  WritePod<uint64_t>(out, filter.predicates().size());
  for (const storage::Predicate& p : filter.predicates()) {
    WritePod<int32_t>(out, p.column);
    WritePod<uint32_t>(out, static_cast<uint32_t>(p.op));
    WritePod<double>(out, p.value);
  }
}

storage::Filter ReadFilter(std::istream& in, size_t num_columns) {
  const uint64_t n = ReadPod<uint64_t>(in);
  if (n > serialize::kMaxPayloadBytes / 16) {
    throw std::runtime_error("geoblocks: implausible predicate count");
  }
  std::vector<storage::Predicate> predicates(n);
  for (storage::Predicate& p : predicates) {
    p.column = ReadPod<int32_t>(in);
    if (p.column < 0 || static_cast<size_t>(p.column) >= num_columns) {
      throw std::runtime_error(
          "geoblocks: filter predicate column out of range");
    }
    const uint32_t op = ReadPod<uint32_t>(in);
    if (op > static_cast<uint32_t>(storage::CompareOp::kNe)) {
      throw std::runtime_error("geoblocks: invalid filter operator");
    }
    p.op = static_cast<storage::CompareOp>(op);
    p.value = ReadPod<double>(in);
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

void GeoBlock::WriteStateTo(std::ostream& out, const BlockState& state_ref)
    const {
  serialize::RequireLittleEndianHost();
  const BlockState* state = &state_ref;
  WritePod(out, serialize::kBlockMagic);
  WritePod(out, serialize::kBlockVersion);
  WritePod<int32_t>(out, state->header.level);
  WritePod<uint64_t>(out, num_columns_);
  const geo::Rect domain = projection_.domain();
  WritePod(out, domain.min.x);
  WritePod(out, domain.min.y);
  WritePod(out, domain.max.x);
  WritePod(out, domain.max.y);
  WritePod<uint64_t>(out, state->header.min_cell);
  WritePod<uint64_t>(out, state->header.max_cell);
  WriteAggregateVector(out, state->header.global);
  WriteVector(out, *state->cells);
  WriteVector(out, *state->offsets);
  WriteVector(out, *state->counts);
  WriteVector(out, *state->min_keys);
  WriteVector(out, *state->max_keys);
  WriteVector(out, *state->column_aggs);
  WriteFilter(out, filter_);
}

GeoBlock GeoBlock::ReadFrom(std::istream& in) {
  serialize::RequireLittleEndianHost();
  if (ReadPod<uint32_t>(in) != serialize::kBlockMagic) {
    throw std::runtime_error("geoblocks: not a GeoBlock stream");
  }
  const uint32_t version = ReadPod<uint32_t>(in);
  if (version < serialize::kBlockMinVersion ||
      version > serialize::kBlockVersion) {
    throw std::runtime_error("geoblocks: unsupported GeoBlock version");
  }
  GeoBlock block;
  auto state = std::make_shared<BlockState>();
  state->header.level = ReadPod<int32_t>(in);
  if (state->header.level < 0 ||
      state->header.level > cell::CellId::kMaxLevel) {
    throw std::runtime_error("geoblocks: GeoBlock level out of range");
  }
  block.level_ = state->header.level;
  block.num_columns_ = ReadPod<uint64_t>(in);
  state->num_columns = block.num_columns_;
  geo::Rect domain;
  domain.min.x = ReadPod<double>(in);
  domain.min.y = ReadPod<double>(in);
  domain.max.x = ReadPod<double>(in);
  domain.max.y = ReadPod<double>(in);
  block.projection_ = geo::Projection(domain);
  state->header.min_cell = ReadPod<uint64_t>(in);
  state->header.max_cell = ReadPod<uint64_t>(in);
  state->header.global = ReadAggregateVector(in);
  state->cells = std::make_shared<const std::vector<uint64_t>>(
      ReadVector<uint64_t>(in));
  state->offsets = std::make_shared<const std::vector<uint32_t>>(
      ReadVector<uint32_t>(in));
  state->counts = std::make_shared<const std::vector<uint32_t>>(
      ReadVector<uint32_t>(in));
  state->min_keys = std::make_shared<const std::vector<uint64_t>>(
      ReadVector<uint64_t>(in));
  state->max_keys = std::make_shared<const std::vector<uint64_t>>(
      ReadVector<uint64_t>(in));
  state->column_aggs = std::make_shared<const std::vector<ColumnAggregate>>(
      ReadVector<ColumnAggregate>(in));
  if (version >= 2) {
    block.filter_ = ReadFilter(in, block.num_columns_);
  }
  const size_t n = state->cells->size();
  if (state->offsets->size() != n || state->counts->size() != n ||
      state->min_keys->size() != n || state->max_keys->size() != n ||
      state->column_aggs->size() != n * block.num_columns_) {
    throw std::runtime_error("geoblocks: inconsistent GeoBlock arrays");
  }
  block.InstallState(std::move(state));
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
//   4                 4         format version (2)
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
//   ...               8         pending_bytes (u64): size of the
//                               pending-updates section after the payloads
//   ...               4         pending section CRC-32 (u32)
//   ...               4         manifest CRC-32 over all preceding bytes
//
// Manifest size: 64 + 52*K bytes. Shard payloads follow back to back, then
// the pending-updates section: per shard in order, u64 tuple count followed
// by that many encoded update tuples (core/update_codec.h). The writer
// always writes K zero counts.

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
  const size_t rest_bytes =
      (k + 1) * 8 + k * 16 + k * 8 + k * 16 + k * 4 + 8 + 4 + 4;
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
        m.payload_sizes[i] > kMaxPayloadBytes) {
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
  m.pending_bytes = read_u64_at(pos);
  pos += 8;
  m.pending_crc = read_u32_at(pos);
  if (m.pending_bytes > kMaxPayloadBytes) {
    throw std::runtime_error(
        "geoblocks: implausible BlockSet pending section size");
  }
  return m;
}

}  // namespace serialize

GeoBlock BlockSet::ParseShardPayload(std::string_view payload,
                                     const serialize::SetManifest& m,
                                     size_t s, const GeoBlock* reference) {
  if (serialize::Crc32(payload) != m.payload_crcs[s]) {
    throw std::runtime_error(
        "geoblocks: BlockSet shard payload checksum mismatch");
  }
  io::ViewStream payload_stream(payload);
  GeoBlock block = GeoBlock::ReadFrom(payload_stream);
  if (payload_stream.peek() != std::istream::traits_type::eof()) {
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

void BlockSet::HydrateShard(size_t s, std::string_view payload,
                            const serialize::SetManifest& m) const {
  // First hydration adopts the payload's configuration (level, schema,
  // projection, filter) and seeds the routing hull; a re-fault after
  // eviction must not rewrite them — readers may be looking, and the
  // manifest cross-checks prove the re-loaded values are identical.
  ShardResidency& res = *residency_[s];
  const bool first = !res.hull_known.load(std::memory_order_relaxed);
  blocks_[s]->AdoptDeserialized(
      ParseShardPayload(payload, m, s, s == 0 ? nullptr : blocks_[0].get()),
      /*adopt_config=*/first);
  res.hull_known.store(true, std::memory_order_release);
  res.resident.store(true, std::memory_order_release);
}

void BlockSet::CommitPendingSection(std::string_view pending_section,
                                    uint32_t expected_crc) {
  if (serialize::Crc32(pending_section) != expected_crc) {
    throw std::runtime_error(
        "geoblocks: BlockSet pending section checksum mismatch");
  }
  size_t pending_pos = 0;
  const size_t num_columns = blocks_.front()->num_columns();
  std::vector<GeoBlock::UpdateTuple> tuples;
  for (size_t i = 0; i < blocks_.size(); ++i) {
    if (pending_section.size() - pending_pos < 8) {
      throw std::runtime_error(
          "geoblocks: truncated BlockSet pending section");
    }
    uint64_t count;
    std::memcpy(&count, pending_section.data() + pending_pos, 8);
    pending_pos += 8;
    for (GeoBlock::UpdateTuple& t :
         serialize::DecodeUpdateTuples(pending_section, &pending_pos, count)) {
      if (t.values.size() != num_columns) {
        throw std::runtime_error(
            "geoblocks: BlockSet pending tuple width does not match the "
            "schema");
      }
      tuples.push_back(std::move(t));
    }
  }
  if (pending_pos != pending_section.size()) {
    throw std::runtime_error(
        "geoblocks: BlockSet pending section has trailing bytes");
  }
  // An older writer buffered these tuples per shard, in shard order, each
  // routed by the same boundaries CommitRouted uses: routing the
  // concatenation hands every shard its own tuples in their saved order.
  if (!tuples.empty()) CommitRouted(tuples, nullptr);
}

BlockSet BlockSet::ReadFrom(std::istream& in) {
  serialize::RequireLittleEndianHost();
  // The eager and lazy (OpenMapped) loaders share the manifest decoder,
  // FromManifest and HydrateShard; they differ only in when payload bytes
  // are touched (here: immediately; lazily: on first route to the shard).
  const serialize::SetManifest m = serialize::ReadSetManifest(in);
  BlockSet set = FromManifest(m);

  // Shard payloads, in shard order (shard 0 donates the configuration the
  // others are cross-checked against): each is read whole and parsed in
  // isolation, so a payload that lies about its length cannot bleed into
  // its neighbor.
  std::string payload;
  for (size_t i = 0; i < m.shard_count; ++i) {
    payload.resize(m.payload_sizes[i]);
    in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!in) {
      throw std::runtime_error("geoblocks: truncated BlockSet shard payload");
    }
    set.HydrateShard(i, payload, m);
  }
  set.level_ = set.blocks_.front()->level();
  set.projection_ = set.blocks_.front()->projection();

  // Pending-updates section: checksum, then commit any tuples an older
  // writer left buffered there.
  std::string pending_section(m.pending_bytes, '\0');
  in.read(pending_section.data(),
          static_cast<std::streamsize>(pending_section.size()));
  if (!in) {
    throw std::runtime_error(
        "geoblocks: truncated BlockSet pending section");
  }
  set.CommitPendingSection(pending_section, m.pending_crc);
  return set;
}

}  // namespace geoblocks::core
