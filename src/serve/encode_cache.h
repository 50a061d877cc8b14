// Cross-request encoder cache: content-addressed reuse of per-scene encoder
// rows in the serving engine.
//
// The serving workload resubmits scenes whose observed history is identical
// byte-for-byte (persistent agents polled by several consumers, replayed
// traffic, the padding rows that cycle a partial batch's live scenes), yet
// the engine re-ran the full backbone encoder for every row of every batch.
// The backbone seam makes the encoder half reusable: Encode is an rng-free
// pure no-grad forward whose row r depends ONLY on row r's input bytes —
// every kernel accumulates per output element over ascending k and every
// reduction is per-scene (see tensor/kernels.h "tile boundaries don't affect
// values"), so a row encoded in one batch is bit-identical to the same bytes
// encoded in any other batch with the same neighbor-slot width. This cache
// maps those input bytes to the packed encoder output row and lets
// serve::InferenceEngine skip Encode for every row it has seen before.
//
// Correctness model:
//   - The KEY is the full byte string of everything the encoder reads for
//     one scene row (identity header, extents, observed-history floats,
//     neighbor floats + offsets + mask when the method's encoder reads
//     neighbors), so two scenes collide only if the encoder input is
//     byte-identical — in which case the encoder output is too.
//   - The HASH (seeded 64-bit FNV-1a) is only an index. Every probe
//     compares the full key bytes before reporting a hit; a hash collision
//     costs one extra compare (counted in stats().hash_conflicts), never a
//     wrong value. Tests force collisions through a fake hasher to pin this.
//   - EVICTION is LRU under a byte budget covering keys + values + a fixed
//     per-entry overhead estimate. An entry larger than the whole budget is
//     never admitted.
//   - INVALIDATION: Invalidate() drops everything (the engine calls it at
//     the SwapWeights flip, under the engine mutex while no batch is
//     executing, so stale-weight latents are unobservable).
//     InvalidateIfVersionChanged(v) clears when the owning method's
//     weights-version counter moved (core::Method::weights_version — bumped
//     by Train), covering in-place retraining of a live served method.
//
// Per-batch protocol (what the engine runs for every batch):
//   1. BuildKeys — no lock. Serializes every row's key into one byte buffer
//      of the caller-owned, reusable BatchKeys (all rows of a batch share
//      one key length), hashes each key once with the seeded FNV-1a, and
//      marks each row's representative: the first row with the same hash
//      AND the same bytes (memcmp), so padding rows and in-batch repeats
//      are looked up — and on a miss encoded — once.
//   2. ProbeBatch — ONE mu_ round-trip: the weights-version check, then one
//      lookup per representative row (bucket walk, full-key memcmp, LRU
//      touch and value copy on a hit). Misses are listed in the BatchKeys.
//      A test hasher (set_hasher_for_test) re-hashes the keys here, under
//      mu_, because the override is guarded by it.
//   3. AdmitBatch — outside mu_, copies each missed row's value and key
//      into an entry block carrying the hash from step 1 (a key is never
//      hashed twice); then ONE mu_ round-trip links the blocks, each after
//      a presence check and the LRU evictions that make room for it.
// Under mu_ the batch calls do only pointer work, key compares, hit copies
// and the counters: no key serialization, no hashing (save under a test
// hasher), no copy of a missed row, and once the cache is full no malloc
// or free (the bucket array grows only while entries are added; a version
// clear frees its blocks after unlock).
// The per-row Lookup / Insert are one-row calls into the same locked
// helpers; they hash under mu_ and allocate one block per Insert.
//
// Storage: each entry is ONE heap block — header (LRU and bucket-chain
// links, hash, sizes) followed by the value floats and the key bytes — on
// an intrusive LRU list and an intrusive chained hash table whose bucket
// array doubles as entries grow (never sized from the byte budget). An
// admit at the byte budget hands the blocks it evicts to its BatchKeys,
// whose next admits refill them: a block is reused when its capacity is at
// least the new entry's size and at most 256 bytes more (fresh blocks are
// sized exactly), so a full cache serving same-shaped scenes runs without
// heap traffic. A BatchKeys keeps a bounded number of spare blocks and
// frees the oldest. The budget charge is unchanged: key bytes + value
// bytes + kEntryOverheadBytes per entry, whatever the block's capacity.
//
// Thread safety: every public method is mutex-guarded; concurrent batches
// may race a miss for the same key and both encode it — the second admit
// finds the key present and is dropped. Because the cached value equals the
// recomputed value bit-exactly, lookup/insert interleaving can never change
// served bytes.
//
// The ADAPTRAJ_ENCODE_CACHE env var is the production kill-switch
// (unset/"1"/"on" = on, "0"/"off" = off), consulted by engines whose
// options leave the cache in kAuto; tests pin kOn/kOff programmatically
// through InferenceEngineOptions so they are env-independent.

#ifndef ADAPTRAJ_SERVE_ENCODE_CACHE_H_
#define ADAPTRAJ_SERVE_ENCODE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data/batch.h"
#include "support/sync.h"
#include "support/thread_annotations.h"

namespace adaptraj {
namespace serve {

/// Engine-facing switch for the encoder cache.
enum class EncodeCacheMode {
  kAuto = 0,  // follow the ADAPTRAJ_ENCODE_CACHE environment variable
  kOn,        // cache when the method supports the encode/decode split
  kOff,       // never cache
};

/// Resolves the ADAPTRAJ_ENCODE_CACHE kill-switch (unset/"1"/"on" = true,
/// "0"/"off"/"false" = false). Read once per process, like ADAPTRAJ_PLAN.
bool EncodeCacheEnabledByEnv();

/// Configuration of one cache instance.
struct EncodeCacheOptions {
  /// LRU byte budget over keys + values + per-entry overhead. Must be > 0.
  int64_t max_bytes = 64ll << 20;
  /// Method/backbone identity mixed into every key (method name + packed
  /// width); keeps entries self-describing if a cache ever outlives a
  /// served-method change that Invalidate did not cover.
  std::string identity;
  /// Seed folded into the 64-bit content hash.
  uint64_t hash_seed = 0x9e3779b97f4a7c15ull;
};

/// Counters and gauges; snapshot under the cache mutex.
struct EncodeCacheStats {
  int64_t lookups = 0;        // rows probed (Lookup calls + distinct batch rows)
  int64_t hits = 0;           // full-key matches served from the cache
  int64_t misses = 0;         // lookups that found no matching key
  int64_t insertions = 0;     // entries admitted
  int64_t evictions = 0;      // entries dropped by the LRU byte budget
  int64_t invalidations = 0;  // Invalidate / version-change clears
  /// Bucket probes whose hash matched but whose key bytes did not — the
  /// collision-safety path (full byte compare, never a silent wrong value).
  int64_t hash_conflicts = 0;
  int64_t entries = 0;  // gauge: live entries
  int64_t bytes = 0;    // gauge: charged bytes of live entries
};

/// Content-addressed LRU cache from encoder-input bytes to the packed
/// encoder output row ([hidden_dim + social_dim] floats).
class EncodeCache {
  struct Entry;

 public:
  /// One batch's keys, built by BuildKeys and consumed by ProbeBatch and
  /// AdmitBatch. Caller-owned and meant to be reused across batches: its
  /// buffers only grow, so steady traffic builds keys without heap traffic.
  /// Not thread-safe; use one per thread.
  class BatchKeys {
   public:
    BatchKeys() = default;
    ~BatchKeys();
    BatchKeys(const BatchKeys&) = delete;
    BatchKeys& operator=(const BatchKeys&) = delete;

    int64_t rows() const { return rows_; }
    size_t key_size() const { return key_size_; }
    const char* key(int64_t row) const {
      return bytes_.data() + static_cast<size_t>(row) * key_size_;
    }
    /// First row whose key bytes equal row `row`'s (`row` itself if none).
    int64_t representative(int64_t row) const {
      return representative_[static_cast<size_t>(row)];
    }
    /// Representative rows the last ProbeBatch missed, ascending.
    const std::vector<int64_t>& miss_rows() const { return miss_rows_; }

   private:
    friend class EncodeCache;
    int64_t rows_ = 0;
    size_t key_size_ = 0;
    std::vector<char> bytes_;
    std::vector<uint64_t> hashes_;
    std::vector<int64_t> representative_;
    std::vector<int64_t> miss_rows_;
    /// Entry blocks AdmitBatch filled outside mu_ and links under it.
    std::vector<Entry*> filled_;
    /// Blocks of entries this caller's admits evicted (or found already
    /// present), refilled by its next admit; bounded, oldest freed first.
    std::vector<Entry*> spare_;
  };

  explicit EncodeCache(EncodeCacheOptions options);
  ~EncodeCache();
  EncodeCache(const EncodeCache&) = delete;
  EncodeCache& operator=(const EncodeCache&) = delete;

  /// Serializes the key of every row of `batch` (see SceneEncodeKey) into
  /// `keys`, hashes each once, and resolves in-batch duplicates. Lock-free:
  /// reads only the immutable options.
  void BuildKeys(const data::Batch& batch, bool include_neighbors,
                 BatchKeys* keys) const;

  /// One lock round-trip: InvalidateIfVersionChanged(weights_version), then
  /// one lookup per representative row. A hit copies the row's value into
  /// out[row * width, (row + 1) * width) and touches the entry to the LRU
  /// front; misses are listed in keys->miss_rows(). Rows that are not
  /// their own representative are neither probed nor written. Returns the
  /// number of hits.
  int64_t ProbeBatch(int64_t weights_version, BatchKeys* keys, float* out,
                     int64_t width) ADAPTRAJ_EXCLUDES(mu_);

  /// Admits values[row * width, (row + 1) * width) under the key of every
  /// row in keys->miss_rows(), as Insert does. Keys and values are copied
  /// into entry blocks before the lock (into blocks this BatchKeys's earlier
  /// admits evicted, when they fit); one lock round-trip then links them.
  void AdmitBatch(BatchKeys* keys, const float* values, int64_t width)
      ADAPTRAJ_EXCLUDES(mu_);

  /// Copies the cached row for `key` into out[0, width) and returns true;
  /// false on miss. Touches the entry to the LRU front on hit.
  bool Lookup(const std::string& key, float* out, int64_t width)
      ADAPTRAJ_EXCLUDES(mu_);

  /// Admits a copy of value[0, width) under `key`, evicting LRU entries
  /// until the byte budget holds. Dropped silently when the key is already
  /// present (a concurrent batch encoded it first — the values are
  /// bit-identical by the determinism contract) or when one entry alone
  /// exceeds the budget.
  void Insert(const std::string& key, const float* value, int64_t width)
      ADAPTRAJ_EXCLUDES(mu_);

  /// Drops every entry.
  void Invalidate() ADAPTRAJ_EXCLUDES(mu_);

  /// Clears when `version` differs from the last adopted weights version
  /// (first call adopts without clearing an empty cache's stats).
  void InvalidateIfVersionChanged(int64_t version) ADAPTRAJ_EXCLUDES(mu_);

  EncodeCacheStats stats() const ADAPTRAJ_EXCLUDES(mu_);
  const EncodeCacheOptions& options() const { return options_; }

  /// Test hook: replaces the content hash (e.g. with a constant, forcing
  /// every key into one bucket to exercise the full-key compare fallback).
  /// Call only on an empty cache — existing entries keep their old hash.
  void set_hasher_for_test(std::function<uint64_t(const std::string&)> hasher)
      ADAPTRAJ_EXCLUDES(mu_);

 private:
  /// Hash of key bytes under the test override when one is set, else the
  /// seeded FNV-1a. Reads hasher_override_, which set_hasher_for_test
  /// writes under mu_ — so this runs inside the critical section.
  uint64_t HashLocked(const char* key, size_t size) const ADAPTRAJ_REQUIRES(mu_);
  /// Entry with exactly these key bytes, or null; counts same-hash entries
  /// with other bytes into `conflicts`.
  Entry* FindLocked(const char* key, size_t size, uint64_t hash, int64_t* conflicts)
      ADAPTRAJ_REQUIRES(mu_);
  /// Lookup body: counts the probe, copies and touches on a hit.
  bool LookupLocked(const char* key, size_t size, uint64_t hash, float* out,
                    int64_t width) ADAPTRAJ_REQUIRES(mu_);
  /// Insert body: links the filled `block` unless its key is present or it
  /// alone exceeds the budget, evicting LRU entries until the budget holds.
  /// Evicted blocks, and `block` when not linked, go to `spare`; nothing is
  /// allocated or freed under mu_.
  void AdmitLocked(Entry* block, std::vector<Entry*>* spare) ADAPTRAJ_REQUIRES(mu_);
  /// Clears (blocks to `stale`, freed by the caller after mu_) when
  /// `version` is not the adopted one.
  void InvalidateIfVersionChangedLocked(int64_t version, std::vector<Entry*>* stale)
      ADAPTRAJ_REQUIRES(mu_);
  /// Unlinks every entry and hands its block to `retired`.
  void ClearLocked(std::vector<Entry*>* retired) ADAPTRAJ_REQUIRES(mu_);
  /// Removes `entry` from the index and the LRU list (storage untouched).
  void UnlinkLocked(Entry* entry) ADAPTRAJ_REQUIRES(mu_);
  void LinkLocked(Entry* entry) ADAPTRAJ_REQUIRES(mu_);
  Entry** BucketLocked(uint64_t hash) ADAPTRAJ_REQUIRES(mu_);
  /// Doubles the bucket array once entries outnumber buckets.
  void MaybeGrowLocked() ADAPTRAJ_REQUIRES(mu_);
  static void FreeAll(std::vector<Entry*>* blocks);

  /// Immutable after construction; readable without mu_.
  EncodeCacheOptions options_;
  mutable support::Mutex mu_;
  /// Intrusive MRU-first recency list over the owned entry blocks.
  Entry* lru_head_ ADAPTRAJ_GUARDED_BY(mu_) = nullptr;
  Entry* lru_tail_ ADAPTRAJ_GUARDED_BY(mu_) = nullptr;
  /// Chained hash index (power-of-two size, high bits of a mixed hash).
  std::vector<Entry*> buckets_ ADAPTRAJ_GUARDED_BY(mu_);
  int bucket_shift_ ADAPTRAJ_GUARDED_BY(mu_) = 64;
  EncodeCacheStats stats_ ADAPTRAJ_GUARDED_BY(mu_);
  int64_t weights_version_ ADAPTRAJ_GUARDED_BY(mu_) = 0;
  bool has_weights_version_ ADAPTRAJ_GUARDED_BY(mu_) = false;
  std::function<uint64_t(const std::string&)> hasher_override_
      ADAPTRAJ_GUARDED_BY(mu_);
};

/// Builds the content key for row `row` of `batch`: identity header, the
/// extents that shape the encoder input (obs_len; neighbor-slot width M when
/// `include_neighbors`), then the raw float bytes the encoder reads for that
/// row — observed-history displacements and, when `include_neighbors`, the
/// row's neighbor displacement steps, offsets, and validity mask. Methods
/// whose encoder ignores neighbors (Counter encodes the counterfactual
/// scene; core::Method::encode_reads_neighbors() == false) get shorter keys
/// and legitimately higher hit rates. Padded neighbor slots hash as their
/// zero bytes, making M part of the key content: a scene cached at one slot
/// width misses at another — conservative, never wrong. Byte-identical to
/// the row keys EncodeCache::BuildKeys serializes.
std::string SceneEncodeKey(const std::string& identity, const data::Batch& batch,
                           int64_t row, bool include_neighbors);

}  // namespace serve
}  // namespace adaptraj

#endif  // ADAPTRAJ_SERVE_ENCODE_CACHE_H_
