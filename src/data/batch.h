// Batching of trajectory sequences into model-ready tensors.
//
// Coordinates are normalized into the focal agent's frame: the models consume
// per-step displacements for the focal agent and its neighbors plus each
// neighbor's offset relative to the focal agent at the last observed step.
// This removes absolute-position bias and is shared by all backbones.

#ifndef ADAPTRAJ_DATA_BATCH_H_
#define ADAPTRAJ_DATA_BATCH_H_

#include <vector>

#include "data/dataset.h"
#include "tensor/tensor.h"

namespace adaptraj {
namespace data {

/// Model-ready mini-batch. B = batch size, M = neighbor slots (padded).
struct Batch {
  int64_t batch_size = 0;
  int64_t max_neighbors = 0;
  int obs_len = 0;
  int pred_len = 0;

  /// Focal per-step displacements: obs_len tensors of [B, 2]; step 0 is zero.
  std::vector<Tensor> obs_steps;
  /// Focal observed displacements flattened: [B, obs_len*2].
  Tensor obs_flat;

  /// Neighbor per-step displacements: obs_len tensors of [B*M, 2], zero rows
  /// for padding slots.
  std::vector<Tensor> nbr_steps;
  /// Neighbor position relative to the focal anchor at the last observed
  /// step: [B*M, 2].
  Tensor nbr_offsets;
  /// Validity mask [B, M]: 1 for real neighbors, 0 for padding.
  Tensor nbr_mask;

  /// Future per-step displacements (targets): pred_len tensors of [B, 2].
  std::vector<Tensor> fut_steps;
  /// Future displacements flattened: [B, pred_len*2].
  Tensor fut_flat;
  /// Endpoint displacement: final future position minus anchor, [B, 2].
  Tensor endpoint;

  /// Source-domain label per sequence (-1 when not from a source domain).
  std::vector<int> domain_labels;
};

/// Assembles a batch from sequence pointers (all must share the config's
/// window lengths). An empty list yields a well-formed B = 0 batch.
/// `min_neighbor_slots` forces at least that many padded neighbor slots (M):
/// callers re-batching a subset of scenes pass the original batch's M so the
/// sub-batch's padded rows stay byte-identical to the full batch's (the
/// encoder-cache keys hash those bytes).
Batch MakeBatch(const std::vector<const TrajectorySequence*>& sequences,
                const SequenceConfig& config, int64_t min_neighbor_slots = 1);

/// Copies rows `rows` of `batch`, in that order, into a new batch with the
/// same neighbor-slot width M. Every row is per-scene data, so the result is
/// byte-identical to MakeBatch over those rows' scenes with
/// min_neighbor_slots = batch.max_neighbors, without re-reading the scenes.
Batch SelectRows(const Batch& batch, const std::vector<int64_t>& rows);

/// Epoch iterator over a dataset with optional shuffling.
class BatchLoader {
 public:
  BatchLoader(const Dataset* dataset, int batch_size, const SequenceConfig& config,
              uint64_t seed, bool shuffle);

  /// Restarts the epoch (reshuffles when shuffling is enabled).
  void Reset();

  /// Fills `batch` with the next mini-batch; returns false at epoch end.
  bool Next(Batch* batch);

  /// Number of batches per epoch.
  int64_t NumBatches() const;

 private:
  const Dataset* dataset_;
  int batch_size_;
  SequenceConfig config_;
  Rng rng_;
  bool shuffle_;
  std::vector<size_t> order_;
  size_t cursor_ = 0;
};

}  // namespace data
}  // namespace adaptraj

#endif  // ADAPTRAJ_DATA_BATCH_H_
