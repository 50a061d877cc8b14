#include "data/batch.h"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace adaptraj {
namespace data {

Batch MakeBatch(const std::vector<const TrajectorySequence*>& sequences,
                const SequenceConfig& config, int64_t min_neighbor_slots) {
  // An empty list is valid and yields a well-formed B = 0 batch (every
  // tensor keeps its documented rank with a zero batch extent): empty tail
  // batches and an idle serving engine produce these.
  const int64_t batch = static_cast<int64_t>(sequences.size());
  const int obs_len = config.obs_len;
  const int pred_len = config.pred_len;

  // Keep at least one (masked) slot so shapes are stable; a caller-supplied
  // floor widens padding to match an enclosing batch (see the declaration).
  int64_t max_nbr = std::max<int64_t>(1, min_neighbor_slots);
  for (const TrajectorySequence* s : sequences) {
    ADAPTRAJ_CHECK_MSG(static_cast<int>(s->focal.size()) == config.total_len(),
                       "sequence length mismatch");
    max_nbr = std::max<int64_t>(max_nbr, static_cast<int64_t>(s->neighbors.size()));
  }

  Batch out;
  out.batch_size = batch;
  out.max_neighbors = max_nbr;
  out.obs_len = obs_len;
  out.pred_len = pred_len;

  std::vector<Tensor> obs_steps;
  std::vector<Tensor> nbr_steps;
  std::vector<Tensor> fut_steps;
  for (int t = 0; t < obs_len; ++t) obs_steps.push_back(Tensor::Zeros({batch, 2}));
  for (int t = 0; t < obs_len; ++t) {
    nbr_steps.push_back(Tensor::Zeros({batch * max_nbr, 2}));
  }
  for (int t = 0; t < pred_len; ++t) fut_steps.push_back(Tensor::Zeros({batch, 2}));
  Tensor obs_flat = Tensor::Zeros({batch, obs_len * 2});
  Tensor fut_flat = Tensor::Zeros({batch, pred_len * 2});
  Tensor nbr_offsets = Tensor::Zeros({batch * max_nbr, 2});
  Tensor nbr_mask = Tensor::Zeros({batch, max_nbr});
  Tensor endpoint = Tensor::Zeros({batch, 2});

  for (int64_t b = 0; b < batch; ++b) {
    const TrajectorySequence& seq = *sequences[b];
    const sim::Vec2 anchor = seq.focal[obs_len - 1];

    for (int t = 0; t < obs_len; ++t) {
      const sim::Vec2 d =
          (t == 0) ? sim::Vec2(0.0f, 0.0f) : seq.focal[t] - seq.focal[t - 1];
      obs_steps[t].data()[b * 2 + 0] = d.x;
      obs_steps[t].data()[b * 2 + 1] = d.y;
      obs_flat.data()[b * obs_len * 2 + t * 2 + 0] = d.x;
      obs_flat.data()[b * obs_len * 2 + t * 2 + 1] = d.y;
    }
    for (int t = 0; t < pred_len; ++t) {
      const sim::Vec2 d = seq.focal[obs_len + t] -
                          seq.focal[obs_len + t - 1];
      fut_steps[t].data()[b * 2 + 0] = d.x;
      fut_steps[t].data()[b * 2 + 1] = d.y;
      fut_flat.data()[b * pred_len * 2 + t * 2 + 0] = d.x;
      fut_flat.data()[b * pred_len * 2 + t * 2 + 1] = d.y;
    }
    const sim::Vec2 ep = seq.focal.back() - anchor;
    endpoint.data()[b * 2 + 0] = ep.x;
    endpoint.data()[b * 2 + 1] = ep.y;

    for (size_t m = 0; m < seq.neighbors.size(); ++m) {
      const auto& nbr = seq.neighbors[m];
      ADAPTRAJ_CHECK_MSG(static_cast<int>(nbr.size()) == obs_len,
                         "neighbor window length mismatch");
      const int64_t row = b * max_nbr + static_cast<int64_t>(m);
      nbr_mask.data()[b * max_nbr + static_cast<int64_t>(m)] = 1.0f;
      const sim::Vec2 offset = nbr.back() - anchor;
      nbr_offsets.data()[row * 2 + 0] = offset.x;
      nbr_offsets.data()[row * 2 + 1] = offset.y;
      for (int t = 0; t < obs_len; ++t) {
        const sim::Vec2 d = (t == 0) ? sim::Vec2(0.0f, 0.0f) : nbr[t] - nbr[t - 1];
        nbr_steps[t].data()[row * 2 + 0] = d.x;
        nbr_steps[t].data()[row * 2 + 1] = d.y;
      }
    }
    out.domain_labels.push_back(seq.domain_label);
  }

  out.obs_steps = std::move(obs_steps);
  out.obs_flat = std::move(obs_flat);
  out.nbr_steps = std::move(nbr_steps);
  out.nbr_offsets = std::move(nbr_offsets);
  out.nbr_mask = std::move(nbr_mask);
  out.fut_steps = std::move(fut_steps);
  out.fut_flat = std::move(fut_flat);
  out.endpoint = std::move(endpoint);
  return out;
}

namespace {

/// Gathers, for each index in `rows`, its block of `block_rows` tensor rows
/// of `cols` floats from `src` into a new [rows.size() * block_rows, cols]
/// tensor.
Tensor GatherRowBlocks(const Tensor& src, const std::vector<int64_t>& rows,
                       int64_t block_rows, int64_t cols) {
  const int64_t n = static_cast<int64_t>(rows.size());
  const int64_t block = block_rows * cols;
  Tensor out = Tensor::Zeros({n * block_rows, cols});
  for (int64_t i = 0; i < n; ++i) {
    std::memcpy(out.data() + i * block, src.data() + rows[i] * block,
                static_cast<size_t>(block) * sizeof(float));
  }
  return out;
}

}  // namespace

Batch SelectRows(const Batch& batch, const std::vector<int64_t>& rows) {
  const int64_t m = batch.max_neighbors;
  Batch out;
  out.batch_size = static_cast<int64_t>(rows.size());
  out.max_neighbors = m;
  out.obs_len = batch.obs_len;
  out.pred_len = batch.pred_len;
  out.domain_labels.reserve(rows.size());
  for (int64_t r : rows) {
    ADAPTRAJ_CHECK_MSG(r >= 0 && r < batch.batch_size,
                       "SelectRows row " << r << " out of range for batch of "
                                         << batch.batch_size);
    out.domain_labels.push_back(batch.domain_labels[static_cast<size_t>(r)]);
  }
  out.obs_steps.reserve(batch.obs_steps.size());
  for (const Tensor& step : batch.obs_steps) {
    out.obs_steps.push_back(GatherRowBlocks(step, rows, 1, 2));
  }
  out.obs_flat = GatherRowBlocks(batch.obs_flat, rows, 1, batch.obs_len * 2);
  out.nbr_steps.reserve(batch.nbr_steps.size());
  for (const Tensor& step : batch.nbr_steps) {
    out.nbr_steps.push_back(GatherRowBlocks(step, rows, m, 2));
  }
  out.nbr_offsets = GatherRowBlocks(batch.nbr_offsets, rows, m, 2);
  out.nbr_mask = GatherRowBlocks(batch.nbr_mask, rows, 1, m);
  out.fut_steps.reserve(batch.fut_steps.size());
  for (const Tensor& step : batch.fut_steps) {
    out.fut_steps.push_back(GatherRowBlocks(step, rows, 1, 2));
  }
  out.fut_flat = GatherRowBlocks(batch.fut_flat, rows, 1, batch.pred_len * 2);
  out.endpoint = GatherRowBlocks(batch.endpoint, rows, 1, 2);
  return out;
}

BatchLoader::BatchLoader(const Dataset* dataset, int batch_size,
                         const SequenceConfig& config, uint64_t seed, bool shuffle)
    : dataset_(dataset),
      batch_size_(batch_size),
      config_(config),
      rng_(seed),
      shuffle_(shuffle) {
  ADAPTRAJ_CHECK_MSG(dataset != nullptr, "null dataset");
  ADAPTRAJ_CHECK_MSG(batch_size >= 1, "batch size must be positive");
  order_.resize(dataset_->sequences.size());
  std::iota(order_.begin(), order_.end(), 0u);
  Reset();
}

void BatchLoader::Reset() {
  cursor_ = 0;
  if (shuffle_) std::shuffle(order_.begin(), order_.end(), rng_.engine());
}

bool BatchLoader::Next(Batch* batch) {
  ADAPTRAJ_CHECK(batch != nullptr);
  if (cursor_ >= order_.size()) return false;
  const size_t end = std::min(order_.size(), cursor_ + static_cast<size_t>(batch_size_));
  std::vector<const TrajectorySequence*> chunk;
  chunk.reserve(end - cursor_);
  for (size_t i = cursor_; i < end; ++i) {
    chunk.push_back(&dataset_->sequences[order_[i]]);
  }
  cursor_ = end;
  *batch = MakeBatch(chunk, config_);
  return true;
}

int64_t BatchLoader::NumBatches() const {
  const int64_t n = static_cast<int64_t>(dataset_->sequences.size());
  return (n + batch_size_ - 1) / batch_size_;
}

}  // namespace data
}  // namespace adaptraj
