#include "src/costmodel/gbdt.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/store/bytes.h"
#include "src/support/logging.h"

namespace ansor {
namespace {

// Per-feature histogram bin edges computed from (sub-sampled) quantiles.
struct BinMap {
  // edges[f] sorted ascending; bin(x) = upper_bound index.
  std::vector<std::vector<float>> edges;

  uint8_t BinOf(int feature, float x) const {
    const std::vector<float>& e = edges[static_cast<size_t>(feature)];
    return static_cast<uint8_t>(std::upper_bound(e.begin(), e.end(), x) - e.begin());
  }
};

BinMap BuildBins(const FeatureMatrix& rows, int max_bins) {
  size_t dim = rows.dim();
  size_t n_rows = rows.rows();
  BinMap bins;
  bins.edges.resize(dim);
  std::vector<float> values;
  values.reserve(n_rows);
  for (size_t f = 0; f < dim; ++f) {
    // A constant column has one distinct value and therefore no edges; about
    // half of the extracted features are constant, so skip their sort.
    size_t same = 1;
    while (same < n_rows && rows.at(same, f) == rows.at(0, f)) {
      ++same;
    }
    if (same == n_rows) {
      continue;
    }
    values.clear();
    for (size_t i = 0; i < n_rows; ++i) {
      values.push_back(rows.at(i, f));
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    std::vector<float>& edges = bins.edges[f];
    if (static_cast<int>(values.size()) <= max_bins) {
      // One bin per distinct value: edges between consecutive values.
      for (size_t i = 0; i + 1 < values.size(); ++i) {
        edges.push_back(0.5f * (values[i] + values[i + 1]));
      }
    } else {
      for (int b = 1; b < max_bins; ++b) {
        size_t idx = values.size() * static_cast<size_t>(b) / static_cast<size_t>(max_bins);
        float edge = values[idx];
        if (edges.empty() || edge > edges.back()) {
          edges.push_back(edge);
        }
      }
    }
  }
  return bins;
}

struct SplitResult {
  double gain = 0.0;
  int slot = -1;  // index into the live feature list; -1 when no split helps
  int bin = -1;   // go left when bin(x) <= bin
  float threshold = 0.0f;
};

// Gradient and hessian sums of one histogram bin.
struct GradSum {
  double g = 0.0;
  double h = 0.0;
};

// Builds trees over pre-binned rows. Only live features (those with at least
// one bin edge) are binned, row-major: binned[i * live.size() + j] is row i's
// bin of feature live[j]. One pass over a node's rows then fills every live
// feature's histogram, and each (feature, bin) sum still adds its rows in the
// node's row order, as a per-feature pass would.
class TreeBuilder {
 public:
  TreeBuilder(const std::vector<uint8_t>& binned, size_t n_rows, const std::vector<int>& live,
              const BinMap& bins, const std::vector<double>& grad,
              const std::vector<double>& hess, const GbdtParams& params)
      : binned_(binned), n_rows_(n_rows), live_(live), bins_(bins), grad_(grad), hess_(hess),
        params_(params) {
    for (int f : live_) {
      stride_ = std::max(stride_, bins_.edges[static_cast<size_t>(f)].size() + 1);
    }
    hist_.resize(live_.size() * stride_);
  }

  // Builds one tree from the current contents of grad and hess.
  Tree Build() {
    tree_ = Tree();
    std::vector<int> all(n_rows_);
    for (size_t i = 0; i < all.size(); ++i) {
      all[i] = static_cast<int>(i);
    }
    BuildNode(all, 0);
    return std::move(tree_);
  }

 private:
  int BuildNode(const std::vector<int>& rows, int depth) {
    double g = 0.0;
    double h = 0.0;
    for (int i : rows) {
      g += grad_[static_cast<size_t>(i)];
      h += hess_[static_cast<size_t>(i)];
    }
    int node_id = static_cast<int>(tree_.nodes.size());
    tree_.nodes.emplace_back();
    // Newton step leaf value.
    tree_.nodes[static_cast<size_t>(node_id)].value = -g / (h + params_.lambda);

    if (depth >= params_.max_depth ||
        static_cast<int>(rows.size()) < 2 * params_.min_rows_per_leaf) {
      return node_id;
    }
    SplitResult best = FindBestSplit(rows, g, h);
    if (best.slot < 0) {
      return node_id;
    }
    std::vector<int> left;
    std::vector<int> right;
    for (int i : rows) {
      if (binned_[static_cast<size_t>(i) * live_.size() + static_cast<size_t>(best.slot)] <=
          best.bin) {
        left.push_back(i);
      } else {
        right.push_back(i);
      }
    }
    if (static_cast<int>(left.size()) < params_.min_rows_per_leaf ||
        static_cast<int>(right.size()) < params_.min_rows_per_leaf) {
      return node_id;
    }
    int left_id = BuildNode(left, depth + 1);
    int right_id = BuildNode(right, depth + 1);
    TreeNode& node = tree_.nodes[static_cast<size_t>(node_id)];
    node.feature = live_[static_cast<size_t>(best.slot)];
    node.threshold = best.threshold;
    node.left = left_id;
    node.right = right_id;
    return node_id;
  }

  SplitResult FindBestSplit(const std::vector<int>& rows, double g_total, double h_total) {
    size_t n_live = live_.size();
    std::fill(hist_.begin(), hist_.end(), GradSum());
    for (int i : rows) {
      double g = grad_[static_cast<size_t>(i)];
      double h = hess_[static_cast<size_t>(i)];
      const uint8_t* row = binned_.data() + static_cast<size_t>(i) * n_live;
      GradSum* hist = hist_.data();
      for (size_t j = 0; j < n_live; ++j, hist += stride_) {
        GradSum& sum = hist[row[j]];
        sum.g += g;
        sum.h += h;
      }
    }

    SplitResult best;
    double parent_score = g_total * g_total / (h_total + params_.lambda);
    for (size_t j = 0; j < n_live; ++j) {
      const std::vector<float>& edges = bins_.edges[static_cast<size_t>(live_[j])];
      const GradSum* hist = hist_.data() + j * stride_;
      double gl = 0.0;
      double hl = 0.0;
      for (size_t b = 0; b < edges.size(); ++b) {
        gl += hist[b].g;
        hl += hist[b].h;
        double gr = g_total - gl;
        double hr = h_total - hl;
        if (hl <= 0.0 || hr <= 0.0) {
          continue;
        }
        double gain = gl * gl / (hl + params_.lambda) + gr * gr / (hr + params_.lambda) -
                      parent_score;
        if (gain > best.gain + params_.min_gain) {
          best.gain = gain;
          best.slot = static_cast<int>(j);
          best.bin = static_cast<int>(b);
          best.threshold = edges[b];
        }
      }
    }
    return best;
  }

  const std::vector<uint8_t>& binned_;
  size_t n_rows_;
  const std::vector<int>& live_;
  const BinMap& bins_;
  const std::vector<double>& grad_;
  const std::vector<double>& hess_;
  const GbdtParams& params_;
  size_t stride_ = 0;          // histogram entries per live feature
  std::vector<GradSum> hist_;  // live_.size() x stride_, reused by every node
  Tree tree_;
};

}  // namespace

double Tree::PredictRow(const float* row) const {
  if (nodes.empty()) {
    return 0.0;
  }
  int cur = 0;
  for (;;) {
    const TreeNode& node = nodes[static_cast<size_t>(cur)];
    if (node.feature < 0) {
      return node.value;
    }
    cur = row[static_cast<size_t>(node.feature)] <= node.threshold ? node.left : node.right;
  }
}

void Gbdt::Train(const GbdtDataset& data) {
  // Bin indices live in uint8_t: more than 256 bins would wrap silently.
  CHECK_GE(params_.max_bins, 2);
  CHECK_LE(params_.max_bins, 256);
  trees_.clear();
  base_score_ = 0.0;
  size_t n_rows = data.rows.rows();
  if (n_rows == 0 || data.num_programs() == 0) {
    return;
  }
  CHECK_EQ(data.group.size(), n_rows);
  CHECK_EQ(data.weights.size(), data.labels.size());

  BinMap bins = BuildBins(data.rows, params_.max_bins);
  // Only features with at least one edge can split; bin just those,
  // row-major, so the split search fills every histogram in one row pass.
  std::vector<int> live;
  for (size_t f = 0; f < bins.edges.size(); ++f) {
    if (!bins.edges[f].empty()) {
      live.push_back(static_cast<int>(f));
    }
  }
  std::vector<uint8_t> binned(n_rows * live.size());
  for (size_t i = 0; i < n_rows; ++i) {
    const float* row = data.rows.row(i);
    uint8_t* out = binned.data() + i * live.size();
    for (size_t j = 0; j < live.size(); ++j) {
      out[j] = bins.BinOf(live[j], row[live[j]]);
    }
  }

  // Rows per program (for the sum-structured prediction).
  std::vector<std::vector<int>> program_rows(static_cast<size_t>(data.num_programs()));
  for (size_t i = 0; i < n_rows; ++i) {
    program_rows[static_cast<size_t>(data.group[i])].push_back(static_cast<int>(i));
  }

  // Base score: weighted mean label spread across the average row count.
  double wy = 0.0;
  double w = 0.0;
  for (int p = 0; p < data.num_programs(); ++p) {
    wy += data.weights[static_cast<size_t>(p)] * data.labels[static_cast<size_t>(p)];
    w += data.weights[static_cast<size_t>(p)];
  }
  double mean_label = w > 0.0 ? wy / w : 0.0;
  base_score_ = mean_label;

  std::vector<double> program_pred(static_cast<size_t>(data.num_programs()), base_score_);
  std::vector<double> grad(n_rows);
  std::vector<double> hess(n_rows);
  TreeBuilder builder(binned, n_rows, live, bins, grad, hess, params_);
  for (int t = 0; t < params_.num_trees; ++t) {
    for (size_t i = 0; i < n_rows; ++i) {
      int p = data.group[i];
      double wp = data.weights[static_cast<size_t>(p)];
      double residual = program_pred[static_cast<size_t>(p)] -
                        data.labels[static_cast<size_t>(p)];
      grad[i] = 2.0 * wp * residual;
      hess[i] = 2.0 * wp;
    }
    Tree tree = builder.Build();
    // Update program predictions.
    bool useful = false;
    for (int p = 0; p < data.num_programs(); ++p) {
      double delta = 0.0;
      for (int i : program_rows[static_cast<size_t>(p)]) {
        delta += tree.PredictRow(data.rows.row(static_cast<size_t>(i)));
      }
      if (delta != 0.0) {
        useful = true;
      }
      program_pred[static_cast<size_t>(p)] += params_.learning_rate * delta;
    }
    trees_.push_back(std::move(tree));
    if (!useful) {
      break;  // converged: the tree is a stump predicting zero
    }
  }
}

double Gbdt::PredictRow(const float* row) const {
  double score = 0.0;
  for (const Tree& tree : trees_) {
    score += params_.learning_rate * tree.PredictRow(row);
  }
  return score;
}

namespace {
// Decoder sanity bounds: far beyond any trainable model, small enough to
// reject allocation bombs from corrupted input.
constexpr uint64_t kMaxDecodedTrees = 1u << 20;
constexpr uint64_t kMaxDecodedNodes = 1u << 22;
}  // namespace

void Gbdt::EncodeTo(ByteWriter* w) const {
  w->PutZigzag(params_.num_trees);
  w->PutZigzag(params_.max_depth);
  w->PutF64(params_.learning_rate);
  w->PutF64(params_.lambda);
  w->PutZigzag(params_.max_bins);
  w->PutZigzag(params_.min_rows_per_leaf);
  w->PutF64(params_.min_gain);
  w->PutF64(base_score_);
  w->PutVarint(trees_.size());
  for (const Tree& tree : trees_) {
    w->PutVarint(tree.nodes.size());
    for (const TreeNode& node : tree.nodes) {
      w->PutZigzag(node.feature);
      w->PutF32(node.threshold);
      w->PutZigzag(node.left);
      w->PutZigzag(node.right);
      w->PutF64(node.value);
    }
  }
}

bool Gbdt::DecodeFrom(ByteReader* r) {
  GbdtParams params;
  params.num_trees = static_cast<int>(r->GetZigzag());
  params.max_depth = static_cast<int>(r->GetZigzag());
  params.learning_rate = r->GetF64();
  params.lambda = r->GetF64();
  params.max_bins = static_cast<int>(r->GetZigzag());
  params.min_rows_per_leaf = static_cast<int>(r->GetZigzag());
  params.min_gain = r->GetF64();
  double base_score = r->GetF64();
  uint64_t num_trees = r->GetVarint();
  if (!r->ok() || num_trees > kMaxDecodedTrees || !std::isfinite(base_score) ||
      params.max_bins < 2 || params.max_bins > 256) {
    r->Fail();
    return false;
  }
  std::vector<Tree> trees(num_trees);
  for (Tree& tree : trees) {
    uint64_t num_nodes = r->GetVarint();
    if (!r->ok() || num_nodes > kMaxDecodedNodes) {
      r->Fail();
      return false;
    }
    tree.nodes.resize(num_nodes);
    int n = static_cast<int>(num_nodes);
    for (int i = 0; i < n; ++i) {
      TreeNode& node = tree.nodes[static_cast<size_t>(i)];
      node.feature = static_cast<int>(r->GetZigzag());
      node.threshold = r->GetF32();
      node.left = static_cast<int>(r->GetZigzag());
      node.right = static_cast<int>(r->GetZigzag());
      node.value = r->GetF64();
      if (!r->ok() || node.feature < -1 || !std::isfinite(node.value)) {
        r->Fail();
        return false;
      }
      // Internal nodes must reference in-range children that come after
      // them (leaves carry -1/-1): an out-of-range child would send the tree
      // walk into wild memory, a backward or self edge into an endless loop.
      bool is_leaf = node.feature == -1;
      if (!is_leaf &&
          (node.left <= i || node.left >= n || node.right <= i || node.right >= n)) {
        r->Fail();
        return false;
      }
    }
  }
  params_ = params;
  base_score_ = base_score;
  trees_ = std::move(trees);
  return true;
}

}  // namespace ansor
