// Gradient-boosted regression trees, from scratch.
//
// The paper (§5.2) trains a gradient boosting decision tree [XGBoost] as the
// underlying model f, predicting a score per innermost statement; the program
// score is the sum over its statements. The loss is weighted squared error
//   loss(f, P, y) = y * (sum_{s in S(P)} f(s) - y)^2
// with the throughput y itself as the weight, so well-performing programs
// matter more. We implement the same objective: per-row gradients derive from
// the program-level residual, trees use histogram-based greedy splits.
//
// Training layout: each feature gets at most max_bins uint8_t bins, with
// edges midway between its distinct values, or at quantiles of them when
// there are more values than bins. Only live features, those with at least
// one edge, are binned, row-major (row i's bins are contiguous), so the split
// search fills every live feature's {gradient, hessian} histogram in one pass
// over a node's rows and then scans features in ascending index. Each bin sum
// adds its rows in the node's row order, so the trees do not depend on this
// layout. Every Train call rebuilds bins and trees from scratch.
//
// Inference is one scalar tree walk per row: PredictRow sums the
// learning-rate-scaled leaf of every tree in tree order. Callers score a
// program as base_score() plus its rows' scores in row order.
#ifndef ANSOR_SRC_COSTMODEL_GBDT_H_
#define ANSOR_SRC_COSTMODEL_GBDT_H_

#include <vector>

#include "src/features/feature_matrix.h"

namespace ansor {

class ByteWriter;
class ByteReader;

struct GbdtParams {
  int num_trees = 50;
  int max_depth = 6;
  double learning_rate = 0.15;
  double lambda = 1.0;          // L2 regularization on leaf values
  // Histogram bin count per feature. Must lie in [2, 256]: bin indices are
  // stored as uint8_t, so anything above 256 would silently wrap and
  // corrupt splits. Train() CHECKs this bound.
  int max_bins = 32;
  int min_rows_per_leaf = 4;
  double min_gain = 1e-6;
};

struct TreeNode {
  int feature = -1;     // -1 for leaves
  float threshold = 0;  // go left when x[feature] <= threshold
  int left = -1;
  int right = -1;
  double value = 0.0;  // leaf output
};

// Nodes are stored in preorder: every child index is greater than its
// parent's, so a walk from node 0 always terminates.
struct Tree {
  std::vector<TreeNode> nodes;
  double PredictRow(const float* row) const;
};

// A training set where rows are statements grouped into programs.
struct GbdtDataset {
  FeatureMatrix rows;          // statement feature rows (flat, row-major)
  std::vector<int> group;      // row i belongs to program group[i]
  std::vector<double> labels;  // per-program target (normalized throughput)
  std::vector<double> weights; // per-program weight

  int num_programs() const { return static_cast<int>(labels.size()); }
};

class Gbdt {
 public:
  explicit Gbdt(GbdtParams params = GbdtParams()) : params_(params) {}

  // Trains from scratch on the dataset (sum-over-group objective).
  void Train(const GbdtDataset& data);

  bool trained() const { return !trees_.empty(); }
  double base_score() const { return base_score_; }

  // Score of one statement row (excluding the base score). `row` must hold
  // at least as many columns as the largest split feature.
  double PredictRow(const float* row) const;

  const std::vector<Tree>& trees() const { return trees_; }
  const GbdtParams& params() const { return params_; }

  // Binary codec (store layer, src/store/bytes.h): params, base score, and
  // the trained trees with raw IEEE threshold/value bits, so a decoded
  // model's predictions are bit-identical to the encoder's. DecodeFrom
  // requires every child index to exceed its parent's (the preorder layout
  // Train produces), so a decoded tree can neither cycle nor leave its node
  // array; on malformed input it fails the reader and returns false with the
  // model untouched.
  void EncodeTo(ByteWriter* w) const;
  bool DecodeFrom(ByteReader* r);

 private:
  GbdtParams params_;
  std::vector<Tree> trees_;
  double base_score_ = 0.0;
};

}  // namespace ansor

#endif  // ANSOR_SRC_COSTMODEL_GBDT_H_
