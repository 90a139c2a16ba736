// The shard residency plane of BlockSet: OpenMapped, fault-in, eviction and
// the governor wiring. Every set keeps one residency record per shard; a
// built or eagerly loaded (ReadFrom) set simply never has a cold shard.
// ReadFrom and OpenMapped both start from FromManifest and hydrate through
// the one HydrateShard step (serialize.cc), so both validate payloads
// identically — only *when* bytes are touched differs.
//
// Locking (docs/ARCHITECTURE.md §Memory governance): the global order is
// governor cb_mu -> shard writer lock (w.mu) -> shard residency lock (r.mu).
//   - Fault-in (readers):       r.mu only.
//   - Update commit:            w.mu, then r.mu transiently via
//                               EnsureResident.
//   - Eviction (governor cb):   w.mu -> r.mu.
// All three publish through the shard's SnapshotCell; the pairs above
// serialize every publish. Governor charge updates (which take cb_mu) are
// never made while holding a shard lock — an evict callback of *another*
// shard could be inside cb_mu waiting for shard locks.

#include <cerrno>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "core/block_set.h"
#include "core/serialize.h"
#include "util/io_shim.h"

namespace geoblocks::core {

namespace {

/// One shard-payload (or pending-section) read: a zero-copy view of the
/// mapping, which `file_owner` keeps alive, or — with a shim — a pread loop
/// into a fresh 8-aligned buffer, which is the chaos-test seam for
/// injecting fault-time I/O errors (the raw mapping path can only fail as
/// SIGBUS, which no test harness wants to catch). `*owner` receives what
/// keeps the returned bytes alive.
std::string_view ReadFileBytes(const io::MappedFile& file, util::IoShim* shim,
                               std::shared_ptr<const void> file_owner,
                               uint64_t offset, uint64_t size,
                               std::shared_ptr<const void>* owner) {
  if (shim == nullptr) {
    *owner = std::move(file_owner);
    return file.View(offset, size);
  }
  const std::shared_ptr<char> buffer = serialize::NewPayloadBuffer(size);
  *owner = buffer;
  uint64_t done = 0;
  while (done < size) {
    const ssize_t n =
        shim->Pread(file.fd(), buffer.get() + done, size - done,
                    static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("pread failed: ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      throw std::runtime_error("pread hit end of file (truncated file)");
    }
    done += static_cast<uint64_t>(n);
  }
  return std::string_view(buffer.get(), size);
}

}  // namespace

BlockSet BlockSet::OpenMapped(const std::string& path,
                              const LazyOpenOptions& options) {
  io::MappedFile file = io::MappedFile::Open(path);
  auto src = std::make_shared<LazySource>();
  {
    io::ViewStream manifest_stream(file.data(), file.size());
    src->manifest = serialize::ReadSetManifest(manifest_stream);
  }
  // The set co-owns `src` below, so this reference outlives the function.
  const serialize::SetManifest& m = src->manifest;
  // The whole payload region and the pending section must be inside the
  // mapping: checked once here so later faults can never run off the end
  // of the file (which would be a SIGBUS, not an exception).
  if (file.size() < m.manifest_bytes + m.payload_bytes + m.pending_bytes) {
    throw std::runtime_error(
        "geoblocks: mapped BlockSet file is shorter than its manifest "
        "promises");
  }
  src->file = std::move(file);
  src->shim = options.shim;
  {
    std::shared_ptr<const void> owner;
    serialize::CheckPendingSection(
        ReadFileBytes(src->file, src->shim, src,
                      m.manifest_bytes + m.payload_bytes, m.pending_bytes,
                      &owner),
        m);
  }

  BlockSet set = FromManifest(m);
  set.source_ = std::move(src);
  set.governor_ = options.governor;

  // Shard 0 is materialized eagerly: it carries the level / projection /
  // schema width every later fault is cross-checked against.
  {
    std::lock_guard<std::mutex> lock(set.residency_[0]->mu);
    set.MaterializeShardLocked(0);
  }
  set.level_ = set.blocks_[0]->level();
  set.projection_ = set.blocks_[0]->projection();

  for (size_t i = 0; i < set.num_shards(); ++i) set.RegisterShardEntry(i);
  return set;
}

void BlockSet::MaterializeShardLocked(size_t s) const {
  const LazySource& src = *source_;
  const serialize::SetManifest& m = src.manifest;
  try {
    std::shared_ptr<const void> owner;
    const std::string_view payload =
        ReadFileBytes(src.file, src.shim, source_,
                      m.manifest_bytes + m.payload_offsets[s],
                      m.payload_sizes[s], &owner);
    HydrateShard(s, std::move(owner), payload, m);
  } catch (const std::exception& e) {
    // Typed containment: the caller learns which shard is damaged; the
    // set stays healthy (this shard stays a tombstone and throws the same
    // way on the next route to it; every other shard is unaffected).
    throw ShardFaultError(s, e.what());
  }
  residency_[s]->faults.fetch_add(1, std::memory_order_relaxed);
  if (governor_ != nullptr && residency_[s]->entry != nullptr) {
    governor_->RecordFault(residency_[s]->entry);
  }
}

std::shared_ptr<const BlockState> BlockSet::ResidentState(
    size_t s, bool rebalance) const {
  GeoBlock& block = *blocks_[s];
  std::shared_ptr<const BlockState> state = block.StateSnapshot();
  if (!state->evicted) {
    if (governor_ != nullptr && residency_[s]->entry != nullptr) {
      governor_->Touch(residency_[s]->entry);
    }
    return state;
  }
  {
    std::lock_guard<std::mutex> lock(residency_[s]->mu);
    state = block.StateSnapshot();
    if (state->evicted) {
      MaterializeShardLocked(s);
      // Pinning under r.mu guarantees a non-tombstone: eviction needs this
      // lock, so even an immediate re-eviction cannot beat the pin — the
      // caller always folds real data, and fault-evict races can never
      // livelock a reader.
      state = block.StateSnapshot();
    }
  }
  // Outside every shard lock: charge the fault and (on query paths) let
  // the governor evict colder entries to pay for it. Never inside a shard
  // lock — the evict callbacks take other shards' locks.
  ChargeShard(s);
  if (rebalance && governor_ != nullptr) governor_->EnsureBudget();
  return state;
}

void BlockSet::EnsureResident(size_t s) const {
  if (MaterializeIfCold(s)) ChargeShard(s);
}

bool BlockSet::MaterializeIfCold(size_t s) const {
  if (!blocks_[s]->StateSnapshot()->evicted) return false;
  std::lock_guard<std::mutex> lock(residency_[s]->mu);
  if (!blocks_[s]->StateSnapshot()->evicted) return false;
  MaterializeShardLocked(s);
  return true;
}

void BlockSet::ChargeShard(size_t s) const {
  if (governor_ != nullptr && residency_[s]->entry != nullptr) {
    governor_->UpdateCharge(residency_[s]->entry);
  }
}

size_t BlockSet::resident_shards() const {
  size_t n = 0;
  for (size_t s = 0; s < blocks_.size(); ++s) n += shard_resident(s);
  return n;
}

uint64_t BlockSet::shard_fault_count() const {
  uint64_t n = 0;
  for (const std::shared_ptr<ShardResidency>& r : residency_) {
    n += r->faults.load(std::memory_order_relaxed);
  }
  return n;
}

void BlockSet::RegisterShardEntry(size_t s) {
  if (governor_ == nullptr) return;
  const std::shared_ptr<ShardResidency> res = residency_[s];
  GeoBlock* block = blocks_[s].get();
  const std::shared_ptr<ShardWriter> writer = writers_[s];
  // Callbacks capture the stable per-shard objects (block address, writer
  // record, residency record) — never the movable set.
  res->entry = governor_->Register(
      "shard:" + std::to_string(s),
      [block] {
        const std::shared_ptr<const BlockState> st = block->StateSnapshot();
        // Tombstones charge nothing; resident states charge their
        // aggregate arrays plus a small fixed node overhead.
        return st->evicted ? size_t{0} : st->CellAggregateBytes() + 256;
      },
      [block, writer, res] {
        // Lock order: (governor cb_mu) -> w.mu -> r.mu.
        std::lock_guard<std::mutex> w_lock(writer->mu);
        if (res->dirty.load(std::memory_order_acquire)) {
          // The in-memory state diverged from the mapped payload (or the
          // mapping went stale after a checkpoint): a re-fault would
          // resurrect old data — acknowledged updates must never be lost.
          return false;
        }
        std::lock_guard<std::mutex> r_lock(res->mu);
        if (block->StateSnapshot()->evicted) return false;  // already cold
        block->EvictState();
        return true;
      });
}

void BlockSet::RegisterTrieEntry(size_t s) {
  if (governor_ == nullptr || !cache_enabled()) return;
  const GeoBlockQC* qc = cached_[s].get();
  residency_[s]->trie_entry = governor_->Register(
      "trie:" + std::to_string(s), [qc] { return qc->TrieBytes(); },
      [qc] {
        // The trie is a pure accelerator over the block state: dropping
        // it can never lose data, so trie eviction always succeeds (the
        // next RebuildCache repopulates it from statistics).
        qc->DropTrie();
        return true;
      });
}

void BlockSet::UnregisterGovernorEntries() {
  if (governor_ == nullptr) return;
  for (const std::shared_ptr<ShardResidency>& res : residency_) {
    if (res->entry != nullptr) {
      governor_->Unregister(res->entry);
      res->entry = nullptr;
    }
    if (res->trie_entry != nullptr) {
      governor_->Unregister(res->trie_entry);
      res->trie_entry = nullptr;
    }
  }
}

}  // namespace geoblocks::core
