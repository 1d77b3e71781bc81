#ifndef DPGRID_KD_KD_TREE_H_
#define DPGRID_KD_KD_TREE_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "dp/budget.h"
#include "geo/dataset.h"
#include "grid/synopsis.h"

namespace dpgrid {

/// Options for the private KD-tree family (Cormode et al., ICDE'12).
struct KdTreeOptions {
  /// Number of splitting levels below the root. 0 = auto from N.
  int depth = 0;

  /// The first `quad_levels` splitting levels use quadtree (midpoint, 4-way)
  /// splits, which need no privacy budget; remaining levels use KD splits at
  /// a noisy median along the longer region axis. KD-standard: 0.
  int quad_levels = 0;

  /// Fraction of the total budget reserved for the noisy medians
  /// (split evenly across the KD levels; disjoint nodes at a level compose
  /// in parallel).
  double median_fraction = 0.3;

  /// Geometric allocation of the count budget across levels (more budget
  /// toward the leaves, ratio 2^(1/3) per level) as in Cormode et al.
  /// false = uniform split.
  bool geometric_budget = false;

  /// Post-process counts with constrained inference.
  bool constrained_inference = false;

  /// Display name ("Kst", "Khy", ...).
  std::string display_name = "Kd";
};

/// KD-standard configuration: noisy-median KD splits at every level, uniform
/// budget, no constrained inference.
KdTreeOptions KdStandardOptions();

/// KD-hybrid configuration (the paper's strongest recursive baseline):
/// quadtree for the first levels, then noisy-median KD splits, geometric
/// budget allocation and constrained inference.
KdTreeOptions KdHybridOptions();

/// Pure quadtree configuration (Cormode et al.'s quadtree variant):
/// midpoint 4-way splits at every level — no budget spent on medians —
/// with geometric budget allocation and constrained inference.
KdTreeOptions QuadTreeOptions();

/// A differentially private KD/quadtree synopsis (paper §III "Recursive
/// Partitioning"). The tree is built top-down; each level receives a share
/// of the budget for its node counts (and, for KD levels, for choosing the
/// split privately). Queries are answered by greedy decomposition: fully
/// covered nodes contribute their (refined) count, partially covered leaves
/// contribute under the uniformity assumption.
class KdTree : public Synopsis {
 public:
  KdTree(const Dataset& dataset, PrivacyBudget& budget, Rng& rng,
         const KdTreeOptions& options = KdStandardOptions());

  KdTree(const Dataset& dataset, double epsilon, Rng& rng,
         const KdTreeOptions& options = KdStandardOptions());

  double Answer(const Rect& query) const override;
  /// A range query's boundary cuts about √nodes nodes, ~50 ns each
  /// through the scalar tree walk.
  double QueryCostNs() const override {
    return 50.0 * std::sqrt(static_cast<double>(nodes_.size()));
  }
  std::string Name() const override { return options_.display_name; }
  std::vector<SynopsisCell> ExportCells() const override;

  /// Number of tree nodes.
  size_t num_nodes() const { return nodes_.size(); }

  /// Number of leaves.
  size_t num_leaves() const;

  /// Actual depth used (after auto-selection).
  int depth() const { return depth_; }

  const KdTreeOptions& options() const { return options_; }

 private:
  struct Node {
    Rect region;
    double estimate = 0.0;  // post-inference (or raw) noisy count
    int first_child = -1;   // children are contiguous
    int num_children = 0;
    int level = 0;
  };

  void Build(const Dataset& dataset, PrivacyBudget& budget, Rng& rng);
  double AnswerNode(size_t node, const Rect& query) const;

  KdTreeOptions options_;
  int depth_ = 0;
  std::vector<Node> nodes_;
};

}  // namespace dpgrid

#endif  // DPGRID_KD_KD_TREE_H_
