// Tests for batch assembly and the epoch loader.

#include "data/batch.h"

#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "data/multi_domain.h"

namespace adaptraj {
namespace data {
namespace {

TrajectorySequence LineSequence(float speed, float lane, const SequenceConfig& cfg,
                                int num_neighbors = 0) {
  TrajectorySequence s;
  s.domain_label = 0;
  for (int t = 0; t < cfg.total_len(); ++t) {
    s.focal.push_back({speed * static_cast<float>(t), lane});
  }
  for (int m = 0; m < num_neighbors; ++m) {
    std::vector<sim::Vec2> nbr;
    for (int t = 0; t < cfg.obs_len; ++t) {
      nbr.push_back({speed * static_cast<float>(t), lane + 1.0f + static_cast<float>(m)});
    }
    s.neighbors.push_back(std::move(nbr));
  }
  return s;
}

TEST(MakeBatchTest, ShapesAreConsistent) {
  SequenceConfig cfg;
  auto a = LineSequence(0.3f, 0.0f, cfg, 2);
  auto b = LineSequence(0.2f, 1.0f, cfg, 0);
  Batch batch = MakeBatch({&a, &b}, cfg);
  EXPECT_EQ(batch.batch_size, 2);
  EXPECT_EQ(batch.max_neighbors, 2);
  ASSERT_EQ(static_cast<int>(batch.obs_steps.size()), cfg.obs_len);
  ASSERT_EQ(static_cast<int>(batch.fut_steps.size()), cfg.pred_len);
  EXPECT_EQ(batch.obs_steps[0].shape(), (Shape{2, 2}));
  EXPECT_EQ(batch.nbr_steps[0].shape(), (Shape{4, 2}));
  EXPECT_EQ(batch.nbr_mask.shape(), (Shape{2, 2}));
  EXPECT_EQ(batch.obs_flat.shape(), (Shape{2, cfg.obs_len * 2}));
  EXPECT_EQ(batch.fut_flat.shape(), (Shape{2, cfg.pred_len * 2}));
  EXPECT_EQ(batch.endpoint.shape(), (Shape{2, 2}));
}

TEST(MakeBatchTest, DisplacementsComputedCorrectly) {
  SequenceConfig cfg;
  auto a = LineSequence(0.3f, 0.0f, cfg);
  Batch batch = MakeBatch({&a}, cfg);
  // First observed displacement is defined as zero.
  EXPECT_FLOAT_EQ(batch.obs_steps[0].flat(0), 0.0f);
  // Subsequent displacements equal the speed.
  for (int t = 1; t < cfg.obs_len; ++t) {
    EXPECT_NEAR(batch.obs_steps[t].flat(0), 0.3f, 1e-5);
    EXPECT_NEAR(batch.obs_steps[t].flat(1), 0.0f, 1e-5);
  }
  for (int t = 0; t < cfg.pred_len; ++t) {
    EXPECT_NEAR(batch.fut_steps[t].flat(0), 0.3f, 1e-5);
  }
}

TEST(MakeBatchTest, EndpointIsFutureDisplacementSum) {
  SequenceConfig cfg;
  auto a = LineSequence(0.25f, 0.0f, cfg);
  Batch batch = MakeBatch({&a}, cfg);
  EXPECT_NEAR(batch.endpoint.flat(0), 0.25f * cfg.pred_len, 1e-4);
  EXPECT_NEAR(batch.endpoint.flat(1), 0.0f, 1e-5);
}

TEST(MakeBatchTest, NeighborMaskMarksValidSlots) {
  SequenceConfig cfg;
  auto a = LineSequence(0.3f, 0.0f, cfg, 1);
  auto b = LineSequence(0.3f, 5.0f, cfg, 3);
  Batch batch = MakeBatch({&a, &b}, cfg);
  EXPECT_EQ(batch.max_neighbors, 3);
  // Row 0: one valid slot; row 1: three valid slots.
  EXPECT_FLOAT_EQ(batch.nbr_mask.flat(0), 1.0f);
  EXPECT_FLOAT_EQ(batch.nbr_mask.flat(1), 0.0f);
  EXPECT_FLOAT_EQ(batch.nbr_mask.flat(2), 0.0f);
  EXPECT_FLOAT_EQ(batch.nbr_mask.flat(3), 1.0f);
  EXPECT_FLOAT_EQ(batch.nbr_mask.flat(4), 1.0f);
  EXPECT_FLOAT_EQ(batch.nbr_mask.flat(5), 1.0f);
}

TEST(MakeBatchTest, PaddedNeighborRowsAreZero) {
  SequenceConfig cfg;
  auto a = LineSequence(0.3f, 0.0f, cfg, 1);
  auto b = LineSequence(0.3f, 5.0f, cfg, 2);
  Batch batch = MakeBatch({&a, &b}, cfg);
  // Padding slot: sequence 0, slot 1 -> row 1 of [B*M, 2] tensors.
  for (int t = 0; t < cfg.obs_len; ++t) {
    EXPECT_FLOAT_EQ(batch.nbr_steps[t].flat(2), 0.0f);
    EXPECT_FLOAT_EQ(batch.nbr_steps[t].flat(3), 0.0f);
  }
  EXPECT_FLOAT_EQ(batch.nbr_offsets.flat(2), 0.0f);
}

TEST(MakeBatchTest, NeighborOffsetRelativeToAnchor) {
  SequenceConfig cfg;
  auto a = LineSequence(0.3f, 0.0f, cfg, 1);  // neighbor in lane +1
  Batch batch = MakeBatch({&a}, cfg);
  EXPECT_NEAR(batch.nbr_offsets.flat(0), 0.0f, 1e-5);  // same x progress
  EXPECT_NEAR(batch.nbr_offsets.flat(1), 1.0f, 1e-5);  // one lane above
}

TEST(MakeBatchTest, AlwaysAtLeastOneNeighborSlot) {
  SequenceConfig cfg;
  auto a = LineSequence(0.3f, 0.0f, cfg, 0);
  Batch batch = MakeBatch({&a}, cfg);
  EXPECT_EQ(batch.max_neighbors, 1);
  EXPECT_FLOAT_EQ(batch.nbr_mask.flat(0), 0.0f);
}

TEST(MakeBatchTest, DomainLabelsCarriedThrough) {
  SequenceConfig cfg;
  auto a = LineSequence(0.3f, 0.0f, cfg);
  a.domain_label = 2;
  auto b = LineSequence(0.3f, 1.0f, cfg);
  b.domain_label = 0;
  Batch batch = MakeBatch({&a, &b}, cfg);
  ASSERT_EQ(batch.domain_labels.size(), 2u);
  EXPECT_EQ(batch.domain_labels[0], 2);
  EXPECT_EQ(batch.domain_labels[1], 0);
}

TEST(SelectRowsTest, ByteIdenticalToMakeBatchOfTheSubsetAtTheSameWidth) {
  SequenceConfig cfg;
  auto a = LineSequence(0.3f, 0.0f, cfg, 3);
  auto b = LineSequence(0.2f, 1.0f, cfg, 0);
  auto c = LineSequence(0.5f, -1.0f, cfg, 1);
  c.domain_label = 2;
  Batch batch = MakeBatch({&a, &b, &c}, cfg);
  const std::vector<int64_t> rows = {2, 1};
  Batch got = SelectRows(batch, rows);
  Batch want = MakeBatch({&c, &b}, cfg, batch.max_neighbors);
  EXPECT_EQ(got.batch_size, want.batch_size);
  EXPECT_EQ(got.max_neighbors, want.max_neighbors);
  EXPECT_EQ(got.domain_labels, want.domain_labels);
  auto same = [](const Tensor& x, const Tensor& y) {
    return x.shape() == y.shape() &&
           std::memcmp(x.data(), y.data(), static_cast<size_t>(x.size()) * sizeof(float)) == 0;
  };
  EXPECT_TRUE(same(got.obs_flat, want.obs_flat));
  EXPECT_TRUE(same(got.nbr_offsets, want.nbr_offsets));
  EXPECT_TRUE(same(got.nbr_mask, want.nbr_mask));
  EXPECT_TRUE(same(got.fut_flat, want.fut_flat));
  EXPECT_TRUE(same(got.endpoint, want.endpoint));
  for (int t = 0; t < cfg.obs_len; ++t) {
    EXPECT_TRUE(same(got.obs_steps[t], want.obs_steps[t])) << "step " << t;
    EXPECT_TRUE(same(got.nbr_steps[t], want.nbr_steps[t])) << "step " << t;
  }
  for (int t = 0; t < cfg.pred_len; ++t) {
    EXPECT_TRUE(same(got.fut_steps[t], want.fut_steps[t])) << "step " << t;
  }
}

TEST(BatchLoaderTest, CoversEverySequenceOncePerEpoch) {
  SequenceConfig cfg;
  Dataset ds;
  for (int i = 0; i < 23; ++i) {
    ds.sequences.push_back(LineSequence(0.1f * static_cast<float>(i + 1), 0.0f, cfg));
  }
  BatchLoader loader(&ds, 5, cfg, 7, /*shuffle=*/true);
  EXPECT_EQ(loader.NumBatches(), 5);
  int64_t seen = 0;
  Batch batch;
  int batches = 0;
  while (loader.Next(&batch)) {
    seen += batch.batch_size;
    ++batches;
  }
  EXPECT_EQ(seen, 23);
  EXPECT_EQ(batches, 5);
  // Second epoch works after Reset.
  loader.Reset();
  EXPECT_TRUE(loader.Next(&batch));
}

TEST(BatchLoaderTest, NoShuffleIsDeterministicOrder) {
  SequenceConfig cfg;
  Dataset ds;
  for (int i = 0; i < 4; ++i) {
    auto s = LineSequence(0.1f * static_cast<float>(i + 1), 0.0f, cfg);
    s.domain_label = i;
    ds.sequences.push_back(s);
  }
  BatchLoader loader(&ds, 2, cfg, 7, /*shuffle=*/false);
  Batch batch;
  ASSERT_TRUE(loader.Next(&batch));
  EXPECT_EQ(batch.domain_labels[0], 0);
  EXPECT_EQ(batch.domain_labels[1], 1);
  ASSERT_TRUE(loader.Next(&batch));
  EXPECT_EQ(batch.domain_labels[0], 2);
}

TEST(MultiDomainTest, LabelsAssignedPerSource) {
  CorpusConfig cfg;
  cfg.num_scenes = 2;
  cfg.steps_per_scene = 40;
  auto dgd = BuildDomainGeneralizationData({sim::Domain::kEthUcy, sim::Domain::kLcas},
                                           sim::Domain::kSdd, cfg);
  ASSERT_EQ(dgd.sources.size(), 2u);
  std::set<int> labels;
  for (const auto& s : dgd.pooled_train.sequences) labels.insert(s.domain_label);
  EXPECT_EQ(labels, (std::set<int>{0, 1}));
  for (const auto& s : dgd.target.test.sequences) EXPECT_EQ(s.domain_label, -1);
  EXPECT_EQ(dgd.target_domain, sim::Domain::kSdd);
  EXPECT_FALSE(dgd.target.test.empty());
  EXPECT_EQ(dgd.pooled_train.size(),
            dgd.sources[0].train.size() + dgd.sources[1].train.size());
}

}  // namespace
}  // namespace data
}  // namespace adaptraj
