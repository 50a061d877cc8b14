#include "serve/encode_cache.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

namespace adaptraj {
namespace serve {

namespace {

/// Fixed accounting overhead per entry: list/node plumbing, index slot, and
/// the string/vector headers. An estimate, not an exact heap measurement —
/// the budget is a watermark, not an allocator contract.
constexpr int64_t kEntryOverheadBytes = 128;

/// Entry blocks are allocated to their exact size; a spare block is reused
/// for a new entry at most this many bytes smaller than the block, which
/// bounds the slack the byte budget does not charge.
constexpr size_t kReuseSlackBytes = 256;

/// Evicted blocks a BatchKeys keeps for its next admits: a few batches'
/// worth, so nearly every admit at the budget refills an evicted block.
constexpr size_t kMaxSpareBlocks = 64;

/// Initial bucket count (power of two); the table doubles with the entries.
constexpr int kInitialBucketShift = 64 - 10;

/// Seeded 64-bit FNV-1a over the key bytes, folding 8 bytes per round: the
/// byte-at-a-time variant serializes one multiply per byte through the
/// loop-carried dependency, which at ~1 KiB scene keys costs more than the
/// hit it indexes. One round per word keeps the avalanche good enough for a
/// table index that is always confirmed by a full-key byte compare. The seed
/// perturbs the offset basis so an attacker (or an unlucky workload) cannot
/// pre-compute colliding scene histories against a published constant.
uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ull ^ seed;
  size_t i = 0;
  for (; i + sizeof(uint64_t) <= n; i += sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, p + i, sizeof(word));
    h ^= word;
    h *= 0x100000001b3ull;
  }
  for (; i < n; ++i) {
    h ^= static_cast<uint64_t>(p[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

char* PutBytes(char* out, const void* data, size_t n) {
  std::memcpy(out, data, n);
  return out + n;
}

char* PutInt64(char* out, int64_t v) { return PutBytes(out, &v, sizeof(v)); }

/// Length of every row key of `batch` (the float sections are fixed-width
/// given the batch's extents).
size_t SceneKeySize(const std::string& identity, const data::Batch& batch,
                    bool include_neighbors) {
  const size_t obs = static_cast<size_t>(batch.obs_len);
  const size_t m = static_cast<size_t>(batch.max_neighbors);
  return identity.size() + 1 + 2 * sizeof(int64_t) + obs * 2 * sizeof(float) +
         (include_neighbors ? m * (obs * 2 + 3) * sizeof(float) : 0);
}

/// Serializes the key of row `row` into out[0, SceneKeySize(...)).
void WriteSceneKey(const std::string& identity, const data::Batch& batch, int64_t row,
                   bool include_neighbors, char* out) {
  ADAPTRAJ_CHECK_MSG(row >= 0 && row < batch.batch_size,
                     "SceneEncodeKey row " << row << " out of range for batch of "
                                           << batch.batch_size);
  const int64_t m = batch.max_neighbors;
  // Header: identity + the extents that shape the encoder input. The float
  // sections below are fixed-width given these extents, so no two distinct
  // inputs can serialize to the same byte string.
  out = PutBytes(out, identity.data(), identity.size());
  *out++ = '\0';
  out = PutInt64(out, batch.obs_len);
  out = PutInt64(out, include_neighbors ? m : -1);
  // Focal observed history: obs_flat row `row` carries the same obs_len*2
  // displacement floats as the per-step tensors, contiguously.
  out = PutBytes(out, batch.obs_flat.data() + row * batch.obs_len * 2,
                 static_cast<size_t>(batch.obs_len) * 2 * sizeof(float));
  if (include_neighbors) {
    // Everything the interaction layer reads for this scene: per-step
    // neighbor displacements (rows row*M .. row*M+M-1 of each step),
    // offsets, and the validity mask row. Padded slots contribute their
    // zero bytes — the slot width M is thereby part of the key content.
    for (const Tensor& step : batch.nbr_steps) {
      out = PutBytes(out, step.data() + row * m * 2,
                     static_cast<size_t>(m) * 2 * sizeof(float));
    }
    out = PutBytes(out, batch.nbr_offsets.data() + row * m * 2,
                   static_cast<size_t>(m) * 2 * sizeof(float));
    PutBytes(out, batch.nbr_mask.data() + row * m, static_cast<size_t>(m) * sizeof(float));
  }
}

}  // namespace

/// One heap block per entry: this header, then `width` value floats, then
/// `key_size` key bytes, inside `capacity` payload bytes.
struct EncodeCache::Entry {
  Entry* lru_prev = nullptr;
  Entry* lru_next = nullptr;
  Entry* bucket_next = nullptr;
  uint64_t hash = 0;
  size_t key_size = 0;
  int64_t width = 0;
  size_t capacity = 0;

  float* value() {
    static_assert(sizeof(Entry) % alignof(float) == 0,
                  "entry values must be float-aligned after the header");
    return reinterpret_cast<float*>(this + 1);
  }
  char* key() { return reinterpret_cast<char*>(value() + width); }
  static size_t PayloadBytes(size_t key_size, int64_t width) {
    return static_cast<size_t>(width) * sizeof(float) + key_size;
  }
  /// Bytes charged against the budget (independent of `capacity`).
  int64_t cost() const {
    return static_cast<int64_t>(PayloadBytes(key_size, width)) + kEntryOverheadBytes;
  }
  /// Whether this block can hold a payload of `payload` bytes with at most
  /// kReuseSlackBytes to spare.
  bool Fits(size_t payload) const {
    return payload <= capacity && capacity - payload <= kReuseSlackBytes;
  }
  /// A block that fits `payload`: the newest fitting one taken out of
  /// `spare`, else a fresh allocation.
  static Entry* Take(std::vector<Entry*>* spare, size_t payload) {
    for (size_t i = spare->size(); i-- > 0;) {
      Entry* block = (*spare)[i];
      if (block->Fits(payload)) {
        spare->erase(spare->begin() + static_cast<std::ptrdiff_t>(i));
        return block;
      }
    }
    Entry* block = new (::operator new(sizeof(Entry) + payload)) Entry();
    block->capacity = payload;
    return block;
  }
  void Fill(uint64_t key_hash, const char* key_bytes, size_t size, const float* values,
            int64_t value_width) {
    hash = key_hash;
    key_size = size;
    width = value_width;
    std::memcpy(value(), values, static_cast<size_t>(width) * sizeof(float));
    std::memcpy(key(), key_bytes, size);
  }
};

EncodeCache::BatchKeys::~BatchKeys() {
  FreeAll(&filled_);
  FreeAll(&spare_);
}

bool EncodeCacheEnabledByEnv() {
  static const bool resolved = [] {
    const char* env = std::getenv("ADAPTRAJ_ENCODE_CACHE");
    if (env == nullptr) return true;
    return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
             std::strcmp(env, "false") == 0);
  }();
  return resolved;
}

EncodeCache::EncodeCache(EncodeCacheOptions options) : options_(std::move(options)) {
  ADAPTRAJ_CHECK_MSG(options_.max_bytes > 0,
                     "EncodeCache max_bytes must be > 0; got " << options_.max_bytes);
}

EncodeCache::~EncodeCache() {
  std::vector<Entry*> blocks;
  {
    support::MutexLock lock(mu_);
    ClearLocked(&blocks);
  }
  FreeAll(&blocks);
}

void EncodeCache::FreeAll(std::vector<Entry*>* blocks) {
  for (Entry* entry : *blocks) ::operator delete(entry);
  blocks->clear();
}

uint64_t EncodeCache::HashLocked(const char* key, size_t size) const {
  if (hasher_override_) return hasher_override_(std::string(key, size));
  return Fnv1a64(key, size, options_.hash_seed);
}

EncodeCache::Entry** EncodeCache::BucketLocked(uint64_t hash) {
  // Fibonacci hashing: the high bits of the product depend on every hash
  // bit (FNV's low bits depend only on the keys' low bits).
  return &buckets_[(hash * 0x9e3779b97f4a7c15ull) >> bucket_shift_];
}

void EncodeCache::MaybeGrowLocked() {
  if (stats_.entries < static_cast<int64_t>(buckets_.size())) return;
  std::vector<Entry*> old;
  old.swap(buckets_);
  bucket_shift_ = old.empty() ? kInitialBucketShift : bucket_shift_ - 1;
  buckets_.assign(size_t{1} << (64 - bucket_shift_), nullptr);
  for (Entry* head : old) {
    while (head != nullptr) {
      Entry* next = head->bucket_next;
      Entry** bucket = BucketLocked(head->hash);
      head->bucket_next = *bucket;
      *bucket = head;
      head = next;
    }
  }
}

EncodeCache::Entry* EncodeCache::FindLocked(const char* key, size_t size, uint64_t hash,
                                            int64_t* conflicts) {
  if (buckets_.empty()) return nullptr;
  for (Entry* entry = *BucketLocked(hash); entry != nullptr; entry = entry->bucket_next) {
    if (entry->hash != hash) continue;
    if (entry->key_size == size && std::memcmp(entry->key(), key, size) == 0) {
      return entry;
    }
    // Same hash, different content: the full-key byte compare is what makes
    // a collision cost one probe instead of one wrong prediction.
    ++*conflicts;
  }
  return nullptr;
}

void EncodeCache::LinkLocked(Entry* entry) {
  MaybeGrowLocked();
  Entry** bucket = BucketLocked(entry->hash);
  entry->bucket_next = *bucket;
  *bucket = entry;
  entry->lru_prev = nullptr;
  entry->lru_next = lru_head_;
  if (lru_head_ != nullptr) lru_head_->lru_prev = entry;
  lru_head_ = entry;
  if (lru_tail_ == nullptr) lru_tail_ = entry;
  ++stats_.entries;
  stats_.bytes += entry->cost();
}

void EncodeCache::UnlinkLocked(Entry* entry) {
  Entry** link = BucketLocked(entry->hash);
  while (*link != entry) link = &(*link)->bucket_next;
  *link = entry->bucket_next;
  (entry->lru_prev != nullptr ? entry->lru_prev->lru_next : lru_head_) = entry->lru_next;
  (entry->lru_next != nullptr ? entry->lru_next->lru_prev : lru_tail_) = entry->lru_prev;
  --stats_.entries;
  stats_.bytes -= entry->cost();
}

bool EncodeCache::LookupLocked(const char* key, size_t size, uint64_t hash, float* out,
                               int64_t width) {
  ++stats_.lookups;
  Entry* entry = FindLocked(key, size, hash, &stats_.hash_conflicts);
  if (entry == nullptr) {
    ++stats_.misses;
    return false;
  }
  ADAPTRAJ_CHECK_MSG(entry->width == width, "EncodeCache width mismatch: cached "
                                                << entry->width
                                                << " floats, caller expects " << width);
  std::memcpy(out, entry->value(), static_cast<size_t>(width) * sizeof(float));
  if (entry != lru_head_) {  // touch: move to the MRU front
    entry->lru_prev->lru_next = entry->lru_next;
    (entry->lru_next != nullptr ? entry->lru_next->lru_prev : lru_tail_) = entry->lru_prev;
    entry->lru_prev = nullptr;
    entry->lru_next = lru_head_;
    lru_head_->lru_prev = entry;
    lru_head_ = entry;
  }
  ++stats_.hits;
  return true;
}

void EncodeCache::AdmitLocked(Entry* block, std::vector<Entry*>* spare) {
  const int64_t cost = block->cost();
  int64_t ignored_conflicts = 0;
  if (cost > options_.max_bytes ||  // one entry over budget: never admit
      FindLocked(block->key(), block->key_size, block->hash, &ignored_conflicts) !=
          nullptr) {  // raced miss: values are bit-equal
    spare->push_back(block);
    return;
  }
  while (lru_tail_ != nullptr && stats_.bytes + cost > options_.max_bytes) {
    Entry* victim = lru_tail_;
    UnlinkLocked(victim);
    ++stats_.evictions;
    spare->push_back(victim);
  }
  LinkLocked(block);
  ++stats_.insertions;
}

void EncodeCache::ClearLocked(std::vector<Entry*>* retired) {
  for (Entry* entry = lru_head_; entry != nullptr; entry = entry->lru_next) {
    retired->push_back(entry);
  }
  lru_head_ = nullptr;
  lru_tail_ = nullptr;
  std::fill(buckets_.begin(), buckets_.end(), nullptr);
  stats_.entries = 0;
  stats_.bytes = 0;
}

void EncodeCache::BuildKeys(const data::Batch& batch, bool include_neighbors,
                            BatchKeys* keys) const {
  const int64_t rows = batch.batch_size;
  const size_t key_size = SceneKeySize(options_.identity, batch, include_neighbors);
  const size_t n = static_cast<size_t>(rows);
  keys->rows_ = rows;
  keys->key_size_ = key_size;
  if (keys->bytes_.size() < n * key_size) keys->bytes_.resize(n * key_size);
  keys->hashes_.resize(n);
  keys->representative_.resize(n);
  keys->miss_rows_.clear();
  for (int64_t r = 0; r < rows; ++r) {
    char* key = keys->bytes_.data() + static_cast<size_t>(r) * key_size;
    WriteSceneKey(options_.identity, batch, r, include_neighbors, key);
    const uint64_t hash = Fnv1a64(key, key_size, options_.hash_seed);
    keys->hashes_[r] = hash;
    keys->representative_[r] = r;
    // Padding cycles the live scenes and identical scenes can share a batch:
    // resolve each row to the first row with the same bytes.
    for (int64_t q = 0; q < r; ++q) {
      if (keys->representative_[q] == q && keys->hashes_[q] == hash &&
          std::memcmp(keys->key(q), key, key_size) == 0) {
        keys->representative_[r] = q;
        break;
      }
    }
  }
}

int64_t EncodeCache::ProbeBatch(int64_t weights_version, BatchKeys* keys, float* out,
                                int64_t width) {
  keys->miss_rows_.clear();
  int64_t hits = 0;
  std::vector<Entry*> stale;  // stays empty (no allocation) unless the version moved
  {
    support::MutexLock lock(mu_);
    InvalidateIfVersionChangedLocked(weights_version, &stale);
    for (int64_t r = 0; r < keys->rows_; ++r) {
      const size_t row = static_cast<size_t>(r);
      if (keys->representative_[row] != r) continue;
      if (hasher_override_) keys->hashes_[row] = HashLocked(keys->key(r), keys->key_size_);
      if (LookupLocked(keys->key(r), keys->key_size_, keys->hashes_[row], out + r * width,
                       width)) {
        ++hits;
      } else {
        keys->miss_rows_.push_back(r);
      }
    }
  }
  FreeAll(&stale);
  return hits;
}

void EncodeCache::AdmitBatch(BatchKeys* keys, const float* values, int64_t width) {
  ADAPTRAJ_CHECK_MSG(width >= 0, "EncodeCache insert with negative width");
  // Blocks left filled by an admit that threw midway are plain spares now.
  keys->spare_.insert(keys->spare_.end(), keys->filled_.begin(), keys->filled_.end());
  keys->filled_.clear();
  // Outside mu_: every admitted entry is copied into its block here, into
  // the storage of entries this caller's earlier admits evicted when it fits.
  const size_t payload = Entry::PayloadBytes(keys->key_size_, width);
  for (int64_t r : keys->miss_rows_) {
    Entry* block = Entry::Take(&keys->spare_, payload);
    block->Fill(keys->hashes_[static_cast<size_t>(r)], keys->key(r), keys->key_size_,
                values + r * width, width);
    keys->filled_.push_back(block);
  }
  {
    support::MutexLock lock(mu_);
    for (Entry* block : keys->filled_) AdmitLocked(block, &keys->spare_);
  }
  keys->filled_.clear();
  if (keys->spare_.size() > kMaxSpareBlocks) {
    const auto oldest_kept = keys->spare_.end() - static_cast<std::ptrdiff_t>(kMaxSpareBlocks);
    std::vector<Entry*> oldest(keys->spare_.begin(), oldest_kept);
    keys->spare_.erase(keys->spare_.begin(), oldest_kept);
    FreeAll(&oldest);
  }
}

bool EncodeCache::Lookup(const std::string& key, float* out, int64_t width) {
  support::MutexLock lock(mu_);
  return LookupLocked(key.data(), key.size(), HashLocked(key.data(), key.size()), out,
                      width);
}

void EncodeCache::Insert(const std::string& key, const float* value, int64_t width) {
  ADAPTRAJ_CHECK_MSG(width >= 0, "EncodeCache insert with negative width");
  std::vector<Entry*> spare;
  Entry* block = Entry::Take(&spare, Entry::PayloadBytes(key.size(), width));
  block->Fill(/*key_hash=*/0, key.data(), key.size(), value, width);
  {
    support::MutexLock lock(mu_);
    block->hash = HashLocked(key.data(), key.size());  // the test hasher is guarded by mu_
    AdmitLocked(block, &spare);
  }
  FreeAll(&spare);
}

void EncodeCache::Invalidate() {
  std::vector<Entry*> retired;
  {
    support::MutexLock lock(mu_);
    if (lru_head_ != nullptr) ++stats_.invalidations;
    ClearLocked(&retired);
    // The next InvalidateIfVersionChanged re-adopts the served method's
    // version without clearing again.
    has_weights_version_ = false;
  }
  FreeAll(&retired);
}

void EncodeCache::InvalidateIfVersionChanged(int64_t version) {
  std::vector<Entry*> stale;
  {
    support::MutexLock lock(mu_);
    InvalidateIfVersionChangedLocked(version, &stale);
  }
  FreeAll(&stale);
}

void EncodeCache::InvalidateIfVersionChangedLocked(int64_t version,
                                                   std::vector<Entry*>* stale) {
  if (has_weights_version_ && version == weights_version_) return;
  if (has_weights_version_ && lru_head_ != nullptr) {
    // Weights mutated in place under the live method (Train on a served
    // instance): every cached latent is stale.
    ++stats_.invalidations;
  }
  ClearLocked(stale);
  weights_version_ = version;
  has_weights_version_ = true;
}

EncodeCacheStats EncodeCache::stats() const {
  support::MutexLock lock(mu_);
  return stats_;
}

void EncodeCache::set_hasher_for_test(
    std::function<uint64_t(const std::string&)> hasher) {
  support::MutexLock lock(mu_);
  ADAPTRAJ_CHECK_MSG(lru_head_ == nullptr,
                     "set_hasher_for_test on a non-empty cache: existing "
                     "entries are indexed under the old hash");
  hasher_override_ = std::move(hasher);
}

std::string SceneEncodeKey(const std::string& identity, const data::Batch& batch,
                           int64_t row, bool include_neighbors) {
  std::string key(SceneKeySize(identity, batch, include_neighbors), '\0');
  WriteSceneKey(identity, batch, row, include_neighbors, &key[0]);
  return key;
}

}  // namespace serve
}  // namespace adaptraj
