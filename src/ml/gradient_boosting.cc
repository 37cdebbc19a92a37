#include "ml/gradient_boosting.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "exec/executor.h"
#include "ml/histogram_index.h"
#include "ml/quantile_sketch.h"
#include "ml/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Result;
using util::Status;

namespace {

using FeatureBins = HistogramIndex::FeatureBins;

double Sigmoid(double margin) { return 1.0 / (1.0 + std::exp(-margin)); }

// Fit positions are 32-bit; the top value marks a position a tree did
// not sample.
constexpr size_t kMaxFitRows = std::numeric_limits<uint32_t>::max();
constexpr uint32_t kUnsampled = std::numeric_limits<uint32_t>::max();

// An engine batch runs on the executor only when its serial work is worth
// at least kParallelMinWork histogram updates (about half a millisecond);
// below that, waking the workers costs more than they save. The weights
// price one element of the other batches in histogram updates. All of it
// depends only on the input, never on the thread count, and none of it
// changes any result.
constexpr size_t kParallelMinWork = size_t{1} << 18;
constexpr size_t kGradientWork = 8;  // Per position: a sigmoid.
constexpr size_t kRouteWork = 2;     // Per position: a routing step.

Status CheckBoostingParams(const GradientBoostedTreesParams& params) {
  if (params.num_trees == 0) {
    return InvalidArgumentError("num_trees must be positive");
  }
  if (params.learning_rate <= 0.0) {
    return InvalidArgumentError("learning_rate must be positive");
  }
  return Status::Ok();
}

// One candidate split of one node; merged across features in feature
// order with a strict gain comparison.
struct SplitCand {
  bool valid = false;
  double gain = 0.0;
  size_t feature = 0;  // Index into the fit's feature list.
  double threshold = 0.0;
  // Numeric only: the bin index of `threshold` (cut "bin <= threshold_bin"),
  // so training routes rows by code without touching raw values.
  size_t threshold_bin = 0;
  std::vector<uint8_t> left_categories;
  bool missing_goes_left = true;
  // Rows the split sends left: an exact integer, read off the histogram.
  double left_count = 0.0;
};

// Per-node gradient/hessian histogram over the active features: (g, h,
// count) per slot, interleaved, where active feature a owns slots
// [offset[a], offset[a] + num_bins], the last slot holding the missing
// rows. Subtractable: parent - smaller child = larger child, slot-wise.
using NodeHist = std::vector<double>;

// The binning and slot layout of the tree being grown.
struct TreeContext {
  const GradientBoostedTreesParams* params = nullptr;
  // Binning per feature index (parallel to the fit's feature list).
  std::vector<const FeatureBins*> feature_bins;
  std::vector<size_t> active;  // Feature indices this tree may split on.
  std::vector<size_t> offset;  // Slot offset per active feature.
  size_t total_slots = 0;
};

// Adds the positions list[first, last) of one node to active feature a's
// slot range of `hist`, in list order; gh holds (g, h) per position and
// `codes` the feature's codes of the positions from `base` on. The task
// works on a private copy of the range (copy in, add, copy out): in the
// shared histogram the few-slot ranges of categorical and low-cardinality
// features share cache lines, and concurrent feature tasks writing them
// stall on each other.
void AccumulateFeature(const TreeContext& ctx, size_t a, const uint16_t* codes,
                       size_t base, const std::vector<uint32_t>& list,
                       size_t first, size_t last,
                       const std::vector<double>& gh, NodeHist& hist) {
  const size_t width = ctx.feature_bins[ctx.active[a]]->num_bins + 1;
  const size_t offset = ctx.offset[a];
  // (g, h, count) per slot, on the stack for the usual bin counts: a
  // worker-thread allocation would stay cached in that thread's arena.
  constexpr size_t kStackSlots = 257;
  std::array<double, 3 * kStackSlots> on_stack;
  std::vector<double> on_heap;
  double* local = on_stack.data();
  if (width > kStackSlots) {
    on_heap.resize(3 * width);
    local = on_heap.data();
  }
  std::copy(hist.begin() + 3 * offset, hist.begin() + 3 * (offset + width),
            local);
  for (size_t k = first; k < last; ++k) {
    const uint32_t pos = list[k];
    const uint16_t code = codes[pos - base];
    const size_t slot = code == HistogramIndex::kMissingBin ? width - 1 : code;
    local[3 * slot] += gh[2 * pos];
    local[3 * slot + 1] += gh[2 * pos + 1];
    local[3 * slot + 2] += 1.0;
  }
  std::copy(local, local + 3 * width, hist.begin() + 3 * offset);
}

// xgboost structure gain of a (GL, HL) / (GR, HR) partition relative to
// keeping the node whole, under L2 penalty lambda.
double SplitGain(double gl, double hl, double gr, double hr, double lambda,
                 double parent_term) {
  return 0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda)) -
         parent_term;
}

// Best split of active feature `a` from the node histogram. Missing rows
// are tried on both sides at every cut; ties keep the left direction.
SplitCand ScanFeature(const TreeContext& ctx, const NodeHist& hist, size_t a,
                      double node_g, double node_h, double node_cnt) {
  const GradientBoostedTreesParams& params = *ctx.params;
  const size_t f = ctx.active[a];
  const FeatureBins& bins = *ctx.feature_bins[f];
  SplitCand best;
  best.gain = params.gamma;  // Strict >: a split must beat gamma.
  if (bins.constant || bins.num_bins < 2) return best;

  auto g = [&](size_t slot) { return hist[3 * slot]; };
  auto h = [&](size_t slot) { return hist[3 * slot + 1]; };
  auto cnt = [&](size_t slot) { return hist[3 * slot + 2]; };
  const size_t base = ctx.offset[a];
  const size_t miss = base + bins.num_bins;
  const double gm = g(miss), hm = h(miss), cm = cnt(miss);
  const double parent_term =
      0.5 * node_g * node_g / (node_h + params.lambda);

  auto try_cut = [&](double cum_g, double cum_h, double cum_c,
                     auto&& record) {
    // dir 0: missing left; dir 1: missing right. When nothing is missing
    // both directions tie and the strict comparison keeps dir 0.
    for (int dir = 0; dir < 2; ++dir) {
      const double gl = cum_g + (dir == 0 ? gm : 0.0);
      const double hl = cum_h + (dir == 0 ? hm : 0.0);
      const double cl = cum_c + (dir == 0 ? cm : 0.0);
      const double gr = node_g - gl;
      const double hr = node_h - hl;
      const double cr = node_cnt - cl;
      if (cl < 1.0 || cr < 1.0) continue;
      if (hl < params.min_child_weight || hr < params.min_child_weight) {
        continue;
      }
      const double gain =
          SplitGain(gl, hl, gr, hr, params.lambda, parent_term);
      if (gain > best.gain) {
        best.valid = true;
        best.gain = gain;
        best.feature = f;
        best.missing_goes_left = dir == 0;
        best.left_count = cl;
        record();
      }
    }
  };

  if (bins.is_numeric) {
    double cum_g = 0.0, cum_h = 0.0, cum_c = 0.0;
    for (size_t b = 0; b + 1 < bins.num_bins; ++b) {
      cum_g += g(base + b);
      cum_h += h(base + b);
      cum_c += cnt(base + b);
      if (cnt(base + b) <= 0.0) continue;  // Same partition as b-1.
      try_cut(cum_g, cum_h, cum_c, [&] {
        best.threshold = bins.upper[b];
        best.threshold_bin = b;
        best.left_categories.clear();
      });
    }
    return best;
  }

  // Categorical: order the node's present levels by gradient-to-hessian
  // ratio (the sign of the optimal leaf weight), then prefix-scan exactly
  // like the numeric bins. Level index breaks ties for determinism.
  std::vector<size_t> order;
  for (size_t level = 0; level < bins.num_bins; ++level) {
    if (cnt(base + level) > 0.0) order.push_back(level);
  }
  if (order.size() < 2) return best;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    const double rx = g(base + x) / (h(base + x) + params.lambda);
    const double ry = g(base + y) / (h(base + y) + params.lambda);
    if (rx != ry) return rx < ry;
    return x < y;
  });
  double cum_g = 0.0, cum_h = 0.0, cum_c = 0.0;
  for (size_t j = 0; j + 1 < order.size(); ++j) {
    cum_g += g(base + order[j]);
    cum_h += h(base + order[j]);
    cum_c += cnt(base + order[j]);
    try_cut(cum_g, cum_h, cum_c, [&] {
      best.left_categories.assign(bins.num_bins, 0);
      for (size_t jj = 0; jj <= j; ++jj) {
        best.left_categories[order[jj]] = 1;
      }
    });
  }
  return best;
}

// Bins one chunk column of `count` rows into codes, exactly as
// HistogramIndex does over the full column: NaN / negative code ->
// kMissingBin, numeric values -> lower_bound over the cut values clamped
// into the last bin.
void BinPage(const FeatureBins& bins, const data::Column& col, size_t count,
             uint16_t* out) {
  if (bins.is_numeric) {
    const std::vector<double>& numeric = col.numeric_values();
    for (size_t r = 0; r < count; ++r) {
      const double v = numeric[r];
      if (std::isnan(v) || bins.upper.empty()) {
        out[r] = HistogramIndex::kMissingBin;
        continue;
      }
      const size_t bin = static_cast<size_t>(
          std::lower_bound(bins.upper.begin(), bins.upper.end(), v) -
          bins.upper.begin());
      out[r] = static_cast<uint16_t>(std::min(bin, bins.upper.size() - 1));
    }
    return;
  }
  const std::vector<int32_t>& src = col.codes();
  for (size_t r = 0; r < count; ++r) {
    out[r] = src[r] >= 0 ? static_cast<uint16_t>(src[r])
                         : HistogramIndex::kMissingBin;
  }
}

// Calls fn(base, chunk) for every chunk of `source` from its start, base
// being the chunk's first row.
template <typename Fn>
Status ForEachChunk(data::RowSource& source, Fn&& fn) {
  ROADMINE_RETURN_IF_ERROR(source.Reset());
  for (size_t base = 0;;) {
    auto chunk = source.Next();
    if (!chunk.ok()) return chunk.status();
    if (*chunk == nullptr) return Status::Ok();
    ROADMINE_RETURN_IF_ERROR(fn(base, **chunk));
    base += (*chunk)->num_rows();
  }
}

// Bin codes by fit position for every sweep of the growth engine. An
// in-RAM fit, and a paged fit whose code matrix fits its cache budget,
// hold every code and hand out one block; a streaming paged fit re-reads
// and re-bins its source, one block per chunk. Blocks arrive in
// ascending position order either way, so every result is identical and
// only the pass count differs.
class CodeSweep {
 public:
  // fn(base, rows, codes): codes[f][i] is feature f's code at fit
  // position base + i, for i < rows.
  using BlockFn = std::function<Status(
      size_t base, size_t rows, const std::vector<const uint16_t*>& codes)>;

  // In RAM: codes[f][i] is feature f's code at fit position i.
  CodeSweep(std::vector<const FeatureBins*> bins, size_t rows,
            std::vector<const uint16_t*> codes)
      : bins_(std::move(bins)), rows_(rows), block_(std::move(codes)) {}

  // Paged: bins `features` of every chunk of `source` on the calling
  // thread (binning on the pool beside the source's page prefetch grew
  // the workers' malloc arenas). With `cache`, the first sweep keeps the
  // codes and later sweeps reuse them.
  CodeSweep(std::vector<const FeatureBins*> bins, size_t rows,
            data::RowSource& source, const std::vector<FeatureRef>& features,
            bool cache)
      : bins_(std::move(bins)),
        rows_(rows),
        source_(&source),
        features_(&features),
        cache_(cache) {}

  const std::vector<const FeatureBins*>& bins() const { return bins_; }

  Status Sweep(const BlockFn& fn) {
    if (source_ == nullptr || cached_) return fn(0, rows_, block_);
    codes_.resize(bins_.size());
    block_.resize(bins_.size());
    size_t seen = 0;
    ROADMINE_RETURN_IF_ERROR(ForEachChunk(
        *source_, [&](size_t base, const data::Dataset& chunk) -> Status {
          const size_t rows = chunk.num_rows();
          seen = base + rows;
          if (seen > rows_) return Status::Ok();  // Reported below.
          for (size_t f = 0; f < bins_.size(); ++f) {
            codes_[f].resize(cache_ ? rows_ : rows);
            block_[f] = codes_[f].data();
            BinPage(*bins_[f], chunk.column((*features_)[f].column_index),
                    rows, codes_[f].data() + (cache_ ? base : 0));
          }
          return cache_ ? Status::Ok() : fn(base, rows, block_);
        }));
    if (seen != rows_) {
      return util::DataLossError("row source changed size between passes");
    }
    if (!cache_) return Status::Ok();
    cached_ = true;
    return fn(0, rows_, block_);
  }

 private:
  std::vector<const FeatureBins*> bins_;
  size_t rows_ = 0;
  std::vector<const uint16_t*> block_;
  // Paged only.
  data::RowSource* source_ = nullptr;
  const std::vector<FeatureRef>* features_ = nullptr;
  bool cache_ = false;
  bool cached_ = false;  // codes_ holds every row.
  // [feature][row]: every row when caching, else the current chunk's.
  std::vector<std::vector<uint16_t>> codes_;
};

}  // namespace

// The one growth engine behind Fit and FitPaged. Every per-row array is
// indexed by fit position. A tree grows level by level, each level two
// executor batches (FillLevel) whose tasks write only their own outputs
// and add in ascending position order, so the model is the same at any
// thread count, grain and chunking. A node's G/H is summed over its
// positions directly (never read back from its histogram), so serial and
// threaded sums match bit for bit.
class GradientBoostedTrees::Grower {
 public:
  Grower(GradientBoostedTrees& model, const std::vector<int8_t>& labels,
         CodeSweep& codes)
      : model_(model), params_(model.params_), labels_(labels), codes_(codes) {
    ctx_.params = &params_;
    ctx_.feature_bins = codes.bins();
  }

  Status Run() {
    const size_t n = labels_.size();
    // Log-odds prior with the same Laplace smoothing the tree leaves use.
    double positives = 0.0;
    for (const int8_t label : labels_) positives += label;
    const double prior =
        (positives + 1.0) / (static_cast<double>(n) + 2.0);
    model_.base_score_ = std::log(prior / (1.0 - prior));
    model_.trees_.clear();
    margin_.assign(n, 0.0);
    gh_.assign(2 * n, 0.0);
    leaf_.resize(n);
    lists_.resize(n);
    parent_lists_.resize(n);
    for (size_t t = 0; t < params_.num_trees; ++t) {
      ROADMINE_RETURN_IF_ERROR(GrowTree(t));
    }
    if (model_.trees_.empty()) {
      return InvalidArgumentError(
          "no trees were built (every round's row sample was empty)");
    }
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    metrics.GetCounter("ml.gbt.fits").Increment();
    metrics.GetGauge("ml.gbt.trees").Set(
        static_cast<double>(model_.trees_.size()));
    metrics.GetGauge("ml.gbt.leaves").Set(
        static_cast<double>(model_.total_leaves()));
    return Status::Ok();
  }

 private:
  // One node of the level being grown.
  struct LiveNode {
    int node = 0;  // Index into tree_.
    int depth = 0;
    // Its fit positions, ascending: lists_[begin, end) for level_,
    // parent_lists_[begin, end) for parents_.
    // A child's list fills up from `begin` while its parent is routed;
    // children at the depth cap, which never split, get none.
    size_t begin = 0, end = 0;
    size_t count = 0;         // Its positions.
    double g = 0.0, h = 0.0;  // Summed over its positions in order.
    NodeHist hist;  // Allocated when it may split or is a family's `built`.
  };

  // The root alone, or the two children of one split. Member `built`
  // accumulates its histogram from its positions; a sibling that may
  // split derives its own as parents_[parent].hist - built's, feature by
  // feature, right before scanning that feature.
  struct Family {
    size_t first = 0;  // level_ index of the first member.
    size_t size = 1;
    size_t built = 0;    // level_ index.
    size_t parent = 0;   // parents_ index (splits only).
    bool grown = false;  // Members get histograms.
  };

  bool Splittable(const LiveNode& live) const {
    return live.depth < params_.max_depth && live.count >= 2;
  }

  // Batches with less work run inline: waking the executor would cost
  // more than it saves.
  exec::Executor* ExecutorFor(size_t work) const {
    return work >= kParallelMinWork ? params_.executor : nullptr;
  }

  // A zeroed histogram, reusing a spent one's storage.
  NodeHist NewHist() {
    NodeHist hist;
    if (!spare_hists_.empty()) {
      hist = std::move(spare_hists_.back());
      spare_hists_.pop_back();
    }
    hist.assign(3 * ctx_.total_slots, 0.0);
    return hist;
  }
  void Recycle(std::vector<LiveNode>& nodes) {
    for (LiveNode& live : nodes) {
      if (!live.hist.empty()) spare_hists_.push_back(std::move(live.hist));
    }
    nodes.clear();
  }

  Status GrowTree(size_t t) {
    const size_t n = labels_.size();
    // Row and column draws come from child streams keyed by the round, so
    // neither depends on scheduling or on the other's draw count.
    util::Rng row_rng(util::Rng::SplitSeed(params_.seed, 2 * t));
    util::Rng col_rng(util::Rng::SplitSeed(params_.seed, 2 * t + 1));

    std::vector<uint32_t>& sample = lists_;
    size_t sampled = n;
    if (params_.subsample < 1.0) {
      sampled = 0;
      for (size_t i = 0; i < n; ++i) {
        if (row_rng.Bernoulli(params_.subsample)) {
          sample[sampled++] = static_cast<uint32_t>(i);
        }
      }
      if (sampled == 0) return Status::Ok();  // No tree this round.
    } else {
      std::iota(sample.begin(), sample.end(), uint32_t{0});
    }

    const size_t num_features = ctx_.feature_bins.size();
    ctx_.active.resize(num_features);
    std::iota(ctx_.active.begin(), ctx_.active.end(), size_t{0});
    if (params_.colsample < 1.0) {
      const size_t keep = std::max<size_t>(
          1, static_cast<size_t>(std::llround(
                 params_.colsample * static_cast<double>(num_features))));
      col_rng.Shuffle(ctx_.active);
      ctx_.active.resize(std::min(keep, ctx_.active.size()));
      std::sort(ctx_.active.begin(), ctx_.active.end());
    }
    ctx_.offset.clear();
    ctx_.total_slots = 0;
    for (size_t f : ctx_.active) {
      ctx_.offset.push_back(ctx_.total_slots);
      ctx_.total_slots += ctx_.feature_bins[f]->num_bins + 1;
    }

    // Gradient and hessian once per tree, for the sampled positions.
    ROADMINE_RETURN_IF_ERROR(exec::ParallelForRanges(
        ExecutorFor(sampled * kGradientWork), sampled,
        [&](size_t begin, size_t end) -> Status {
          for (size_t k = begin; k < end; ++k) {
            const uint32_t i = sample[k];
            const double p = Sigmoid(model_.base_score_ + margin_[i]);
            gh_[2 * i] = p - static_cast<double>(labels_[i]);
            gh_[2 * i + 1] = p * (1.0 - p);
          }
          return Status::Ok();
        }));
    LiveNode root;
    root.end = root.count = sampled;
    std::fill(leaf_.begin(), leaf_.end(), sampled == n ? 0 : kUnsampled);
    for (size_t k = 0; k < sampled; ++k) {
      const uint32_t i = sample[k];
      root.g += gh_[2 * i];
      root.h += gh_[2 * i + 1];
      leaf_[i] = 0;
    }

    tree_.assign(1, Node{});
    routes_.assign(1, {});
    Recycle(parents_);
    Recycle(level_);
    Family family;
    family.grown = Splittable(root);
    if (family.grown) root.hist = NewHist();
    level_.push_back(std::move(root));
    families_.assign(1, family);
    do {
      ROADMINE_RETURN_IF_ERROR(FillLevel());
      for (const LiveNode& live : level_) {
        tree_[static_cast<size_t>(live.node)].leaf_value =
            params_.learning_rate * (-live.g / (live.h + params_.lambda));
      }
      Split();
    } while (!families_.empty());

    // Every fit position moves by its leaf weight, sampled or not.
    // Routing left each sampled position at its leaf; the others walk the
    // tree by their codes.
    ROADMINE_RETURN_IF_ERROR(codes_.Sweep(
        [&](size_t base, size_t rows,
            const std::vector<const uint16_t*>& codes) -> Status {
          return exec::ParallelForRanges(
              ExecutorFor(rows), rows, [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  size_t id = leaf_[base + i] == kUnsampled ? 0 : leaf_[base + i];
                  while (!tree_[id].is_leaf) {
                    const Node& node = tree_[id];
                    const bool left = GoesLeft(id, codes[node.feature][i]);
                    id = static_cast<size_t>(left ? node.left : node.right);
                  }
                  margin_[base + i] += tree_[id].leaf_value;
                }
                return Status::Ok();
              });
        }));
    model_.trees_.push_back(std::move(tree_));
    return Status::Ok();
  }

  // Whether split node `id` sends a row with bin `code` left.
  bool GoesLeft(size_t id, uint16_t code) const {
    const std::vector<uint8_t>& route = routes_[id];
    return route[std::min<size_t>(code, route.size() - 1)] != 0;
  }

  // Fills level_ from one code sweep and scans it into cands_. Per block,
  // two batches: (1) Route; (2) one task per (family, active feature)
  // adding the built member's positions to that feature's slot range. In
  // the last block the same task then derives the sibling's range and
  // scans the feature for both members.
  Status FillLevel() {
    const size_t n = labels_.size();
    const size_t num_active = ctx_.active.size();
    cands_.assign(level_.size() * num_active, SplitCand{});
    std::vector<size_t> grown;  // families_ indices.
    for (size_t f = 0; f < families_.size(); ++f) {
      if (families_[f].grown) grown.push_back(f);
    }
    return codes_.Sweep([&](size_t base, size_t rows,
                            const std::vector<const uint16_t*>& codes)
                            -> Status {
      // The positions of lists[begin, end) that fall in this block.
      auto in_block = [&](const std::vector<uint32_t>& lists, size_t begin,
                          size_t end) {
        const auto first = std::lower_bound(lists.begin() + begin,
                                            lists.begin() + end, base);
        const auto last =
            std::lower_bound(first, lists.begin() + end, base + rows);
        return std::pair<size_t, size_t>(first - lists.begin(),
                                         last - lists.begin());
      };
      if (!parents_.empty()) {
        ROADMINE_RETURN_IF_ERROR(Route(base, codes, in_block));
      }
      const bool last_block = base + rows == n;
      size_t built_positions = 0;
      for (const size_t f : grown) {
        const LiveNode& built = level_[families_[f].built];
        const auto [first, last] = in_block(lists_, built.begin, built.end);
        built_positions += last - first;
      }
      return exec::ParallelFor(
          ExecutorFor(built_positions * num_active), grown.size() * num_active,
          [&](size_t task) -> Status {
            const Family& family = families_[grown[task / num_active]];
            const size_t a = task % num_active;
            LiveNode& built = level_[family.built];
            const auto [first, last] = in_block(lists_, built.begin, built.end);
            AccumulateFeature(ctx_, a, codes[ctx_.active[a]], base, lists_,
                              first, last, gh_, built.hist);
            if (last_block) ScanFamily(family, a);
            return Status::Ok();
          },
          {});
    });
  }

  // Batch (1) of FillLevel for one block: one task per split walks its
  // parent's positions in order, adding each to its child's G/H sums,
  // leaf id and, above the depth cap, position list.
  template <typename InBlock>
  Status Route(size_t base, const std::vector<const uint16_t*>& codes,
               const InBlock& in_block) {
    std::vector<std::pair<size_t, size_t>> segments;  // Per family.
    size_t positions = 0;
    for (const Family& family : families_) {
      const LiveNode& parent = parents_[family.parent];
      segments.push_back(in_block(parent_lists_, parent.begin, parent.end));
      positions += segments.back().second - segments.back().first;
    }
    return exec::ParallelFor(
        ExecutorFor(positions * kRouteWork), families_.size(),
        [&](size_t f) -> Status {
          const Family& family = families_[f];
          const LiveNode& parent = parents_[family.parent];
          const auto id = static_cast<size_t>(parent.node);
          const uint16_t* split_codes =
              codes[static_cast<size_t>(tree_[id].feature)];
          const bool lists = level_[family.first].depth < params_.max_depth;
          // The split's scan sized each child's range of lists_.
          const size_t limit[2] = {level_[family.first + 1].begin,
                                   parent.begin + parent.count};
          for (size_t k = segments[f].first; k < segments[f].second; ++k) {
            const uint32_t pos = parent_lists_[k];
            const size_t side = GoesLeft(id, split_codes[pos - base]) ? 0 : 1;
            LiveNode& child = level_[family.first + side];
            child.g += gh_[2 * pos];
            child.h += gh_[2 * pos + 1];
            ++child.count;
            leaf_[pos] = static_cast<uint32_t>(child.node);
            if (!lists) continue;
            if (child.end == limit[side]) {
              return util::DataLossError("row source changed between passes");
            }
            lists_[child.end++] = pos;
          }
          return Status::Ok();
        },
        {});
  }

  // Derives (when needed) and scans active feature a of every member of
  // `family` that may split.
  void ScanFamily(const Family& family, size_t a) {
    const size_t num_active = ctx_.active.size();
    for (size_t m = family.first; m < family.first + family.size; ++m) {
      LiveNode& member = level_[m];
      if (!Splittable(member)) continue;
      if (m != family.built) {
        const NodeHist& parent = parents_[family.parent].hist;
        const NodeHist& built = level_[family.built].hist;
        const size_t end = ctx_.offset[a] +
                           ctx_.feature_bins[ctx_.active[a]]->num_bins + 1;
        for (size_t s = 3 * ctx_.offset[a]; s < 3 * end; ++s) {
          member.hist[s] = parent[s] - built[s];
        }
      }
      cands_[m * num_active + a] =
          ScanFeature(ctx_, member.hist, a, member.g, member.h,
                      static_cast<double>(member.count));
    }
  }

  // Keeps each scanned node's best candidate and makes the chosen
  // splits' children the next level_ (families_ empty when none split).
  // A split's children take over its parent's range of the list buffer.
  void Split() {
    const size_t num_active = ctx_.active.size();
    Recycle(parents_);
    std::vector<LiveNode> children;
    std::vector<Family> families;
    for (size_t i = 0; i < level_.size(); ++i) {
      const LiveNode& parent = level_[i];
      if (!Splittable(parent)) continue;
      // Per-feature winners merge in feature order; strict > makes the
      // merge independent of how the scans were scheduled.
      SplitCand best;
      best.gain = params_.gamma;
      for (size_t a = 0; a < num_active; ++a) {
        SplitCand& cand = cands_[i * num_active + a];
        if (cand.valid && cand.gain > best.gain) best = std::move(cand);
      }
      if (!best.valid) continue;

      const size_t left_id = tree_.size();
      tree_.resize(left_id + 2);
      routes_.resize(left_id + 2);
      const auto id = static_cast<size_t>(parent.node);
      Node& node = tree_[id];
      node.is_leaf = false;
      node.feature = best.feature;
      node.threshold = best.threshold;
      node.left_categories = std::move(best.left_categories);
      node.missing_goes_left = best.missing_goes_left;
      node.left = static_cast<int>(left_id);
      node.right = static_cast<int>(left_id + 1);
      // Training routes by bin code. A numeric cut at bin b sends codes
      // <= b left, which is serving's `value <= threshold` because every
      // threshold is a bin upper bound.
      const FeatureBins& bins = *ctx_.feature_bins[best.feature];
      std::vector<uint8_t>& route = routes_[id];
      route.resize(bins.num_bins + 1);
      for (size_t code = 0; code < bins.num_bins; ++code) {
        route[code] = bins.is_numeric
                          ? code <= best.threshold_bin
                          : code < node.left_categories.size() &&
                                node.left_categories[code] != 0;
      }
      route[bins.num_bins] = node.missing_goes_left;  // kMissingBin.

      // Only the smaller child (left on a tie) accumulates a histogram;
      // the larger is derived from it. Children at the depth cap are
      // never scanned and get neither histograms nor position lists.
      Family family;
      family.first = children.size();
      family.size = 2;
      family.parent = i;
      const auto left_count = static_cast<size_t>(best.left_count);
      const size_t counts[2] = {left_count, parent.count - left_count};
      family.built = family.first + (counts[0] <= counts[1] ? 0 : 1);
      const int depth = parent.depth + 1;
      family.grown =
          depth < params_.max_depth && (counts[0] >= 2 || counts[1] >= 2);
      for (size_t side = 0; side < 2; ++side) {
        LiveNode child;
        child.node = static_cast<int>(left_id + side);
        child.depth = depth;
        child.begin = child.end = parent.begin + (side == 0 ? 0 : counts[0]);
        if (family.grown &&
            (family.first + side == family.built || counts[side] >= 2)) {
          child.hist = NewHist();
        }
        children.push_back(std::move(child));
      }
      families.push_back(family);
    }
    parents_ = std::move(level_);
    level_ = std::move(children);
    families_ = std::move(families);
    lists_.swap(parent_lists_);
  }

  GradientBoostedTrees& model_;
  const GradientBoostedTreesParams& params_;
  const std::vector<int8_t>& labels_;  // By fit position.
  CodeSweep& codes_;
  TreeContext ctx_;
  std::vector<double> margin_;  // By fit position.
  std::vector<double> gh_;      // (g, h) by fit position, interleaved.
  // By fit position: the deepest tree_ node routing has taken it to, or
  // kUnsampled.
  std::vector<uint32_t> leaf_;
  std::vector<Node> tree_;
  // Per split node of tree_: its direction for each bin code (1 = left),
  // the missing code last.
  std::vector<std::vector<uint8_t>> routes_;
  std::vector<LiveNode> level_;    // The level being grown.
  std::vector<Family> families_;   // Its families.
  std::vector<LiveNode> parents_;  // The level above it.
  // Position lists of level_ and parents_, each sized once per fit.
  std::vector<uint32_t> lists_, parent_lists_;
  std::vector<NodeHist> spare_hists_;  // Storage of spent histograms.
  // Best split per (level_ node, active feature).
  std::vector<SplitCand> cands_;
};

Status GradientBoostedTrees::Fit(const data::Dataset& dataset,
                                 const std::string& target_column,
                                 const std::vector<std::string>& feature_columns,
                                 const std::vector<size_t>& rows) {
  ROADMINE_TRACE_SPAN("ml.gbt.fit");
  obs::ScopedLatency fit_timer(
      obs::MetricsRegistry::Global().GetHistogram("ml.fit_ms"));
  ROADMINE_RETURN_IF_ERROR(CheckFitRows(rows, dataset.num_rows()));
  if (rows.size() >= kMaxFitRows) {
    return InvalidArgumentError("too many rows for one fit");
  }
  ROADMINE_RETURN_IF_ERROR(CheckBoostingParams(params_));
  auto labels = ExtractBinaryLabels(dataset, target_column);
  if (!labels.ok()) return labels.status();
  auto features = ResolveFeatures(dataset, feature_columns, target_column);
  if (!features.ok()) return features.status();
  features_ = std::move(*features);
  trees_.clear();

  const HistogramIndex* hist = params_.histogram_index;
  std::optional<HistogramIndex> local_hist;
  if (hist != nullptr) {
    if (hist->num_rows() != dataset.num_rows() || !hist->Covers(features_)) {
      return InvalidArgumentError(
          "histogram_index does not cover this dataset's feature columns");
    }
  } else {
    auto built = HistogramIndex::Build(dataset, features_, rows,
                                       {.max_bins = params_.max_bins},
                                       params_.executor);
    if (!built.ok()) return built.status();
    local_hist.emplace(std::move(*built));
    hist = &*local_hist;
  }

  // Labels and codes by fit position: rows[i] is position i. The index's
  // codes serve as they are when the rows are every dataset row in order.
  const size_t n = rows.size();
  std::vector<int8_t> fit_labels(n);
  bool all_rows = n == dataset.num_rows();
  for (size_t i = 0; i < n; ++i) {
    fit_labels[i] = (*labels)[rows[i]];
    all_rows = all_rows && rows[i] == i;
  }
  std::vector<const FeatureBins*> bins;
  std::vector<std::vector<uint16_t>> gathered(all_rows ? 0 : features_.size());
  std::vector<const uint16_t*> codes;
  for (size_t f = 0; f < features_.size(); ++f) {
    bins.push_back(&hist->ColumnBins(features_[f].column_index));
    if (all_rows) {
      codes.push_back(bins[f]->codes.data());
      continue;
    }
    gathered[f].resize(n);
    for (size_t i = 0; i < n; ++i) gathered[f][i] = bins[f]->codes[rows[i]];
    codes.push_back(gathered[f].data());
  }
  CodeSweep sweep(std::move(bins), n, std::move(codes));
  return Grower(*this, fit_labels, sweep).Run();
}

Status GradientBoostedTrees::FitPaged(
    data::RowSource& source, const std::string& target_column,
    const std::vector<std::string>& feature_columns,
    const PagedFitOptions& options) {
  ROADMINE_TRACE_SPAN("ml.gbt.fit_paged");
  obs::ScopedLatency fit_timer(
      obs::MetricsRegistry::Global().GetHistogram("ml.fit_ms"));
  ROADMINE_RETURN_IF_ERROR(CheckBoostingParams(params_));
  if (params_.max_bins < 2 || params_.max_bins >= HistogramIndex::kMissingBin) {
    return InvalidArgumentError("max_bins must be in [2, 65534]");
  }
  const data::TableSchema& schema = source.schema();
  auto features = ResolveFeaturesSchema(schema, feature_columns,
                                        target_column);
  if (!features.ok()) return features.status();
  auto target_index = schema.ColumnIndex(target_column);
  if (!target_index.ok()) return target_index.status();
  const bool numeric_target =
      schema.columns[*target_index].type == data::ColumnType::kNumeric;

  const size_t num_features = features->size();
  for (size_t f = 0; f < num_features; ++f) {
    const FeatureRef& ref = (*features)[f];
    if (ref.type != data::ColumnType::kCategorical) continue;
    const size_t k = schema.columns[ref.column_index].categories.size();
    if (k >= HistogramIndex::kMissingBin) {
      return InvalidArgumentError("column '" + ref.name + "' has " +
                                  std::to_string(k) +
                                  " levels, beyond the histogram code space");
    }
  }

  // --- Pass A: labels, numeric quantile sketches, categorical level
  // presence — one stream pass, all in row order.
  std::vector<QuantileSketch> sketches;
  sketches.reserve(num_features);
  std::vector<std::vector<uint8_t>> seen_levels(num_features);
  for (size_t f = 0; f < num_features; ++f) {
    sketches.emplace_back(0);
    const FeatureRef& ref = (*features)[f];
    if (ref.type == data::ColumnType::kCategorical) {
      seen_levels[f].assign(schema.columns[ref.column_index].categories.size(),
                            0);
    }
  }
  std::vector<int8_t> labels;
  ROADMINE_RETURN_IF_ERROR(ForEachChunk(
      source, [&](size_t base, const data::Dataset& chunk) -> Status {
        const data::Column& target = chunk.column(*target_index);
        for (size_t r = 0; r < chunk.num_rows(); ++r) {
          if (target.IsMissing(r)) {
            return InvalidArgumentError("missing target label at row " +
                                        std::to_string(base + r));
          }
          if (numeric_target) {
            labels.push_back(target.NumericAt(r) != 0.0 ? 1 : 0);
          } else {
            labels.push_back(target.CodeAt(r) != 0 ? 1 : 0);
          }
        }
        for (size_t f = 0; f < num_features; ++f) {
          const FeatureRef& ref = (*features)[f];
          const data::Column& col = chunk.column(ref.column_index);
          if (ref.type == data::ColumnType::kNumeric) {
            for (const double v : col.numeric_values()) {
              if (!std::isnan(v)) sketches[f].Add(v);
            }
          } else {
            for (const int32_t code : col.codes()) {
              if (code >= 0) seen_levels[f][static_cast<size_t>(code)] = 1;
            }
          }
        }
        return Status::Ok();
      }));
  const size_t total_rows = labels.size();
  if (total_rows == 0) return InvalidArgumentError("cannot fit on 0 rows");
  if (total_rows >= kMaxFitRows) {
    return InvalidArgumentError("too many rows for a paged fit");
  }

  // Per-feature binning derived from the stream. In the sketch's exact
  // regime the cuts equal HistogramIndex::Build's over the same rows.
  std::vector<FeatureBins> bins(num_features);
  for (size_t f = 0; f < num_features; ++f) {
    const FeatureRef& ref = (*features)[f];
    FeatureBins& out = bins[f];
    if (ref.type == data::ColumnType::kNumeric) {
      out.is_numeric = true;
      out.upper = sketches[f].Cuts(params_.max_bins);
      out.num_bins = out.upper.size();
      out.constant = out.upper.size() < 2;
    } else {
      out.is_numeric = false;
      out.num_bins = seen_levels[f].size();
      size_t present = 0;
      for (const uint8_t seen : seen_levels[f]) present += seen;
      out.constant = present < 2;
    }
  }
  sketches.clear();

  features_ = std::move(*features);
  trees_.clear();

  std::vector<const FeatureBins*> bin_ptrs;
  for (const FeatureBins& feature_bins : bins) bin_ptrs.push_back(&feature_bins);
  const uint64_t cache_bytes = static_cast<uint64_t>(num_features) *
                               static_cast<uint64_t>(total_rows) *
                               sizeof(uint16_t);
  CodeSweep sweep(std::move(bin_ptrs), total_rows, source, features_,
                  cache_bytes <= options.code_cache_bytes);
  ROADMINE_RETURN_IF_ERROR(Grower(*this, labels, sweep).Run());
  obs::MetricsRegistry::Global().GetCounter("ml.gbt.paged_fits").Increment();
  return Status::Ok();
}

double GradientBoostedTrees::PredictProba(const data::Dataset& dataset,
                                          size_t row) const {
  double margin = base_score_;
  for (const std::vector<Node>& tree : trees_) {
    margin += tree[static_cast<size_t>(FindLeaf(tree, features_, dataset, row))]
                  .leaf_value;
  }
  return Sigmoid(margin);
}

Result<std::vector<double>> GradientBoostedTrees::PredictBatch(
    const data::Dataset& dataset, const std::vector<size_t>& rows) const {
  if (!fitted()) return util::FailedPreconditionError("model not fitted");
  ROADMINE_RETURN_IF_ERROR(CheckPredictInput(features_, dataset, rows));
  std::vector<double> out;
  out.reserve(rows.size());
  for (size_t r : rows) out.push_back(PredictProba(dataset, r));
  return out;
}

size_t GradientBoostedTrees::total_leaves() const {
  size_t leaves = 0;
  for (const std::vector<Node>& tree : trees_) {
    for (const Node& node : tree) leaves += node.is_leaf ? 1 : 0;
  }
  return leaves;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {
constexpr char kSerializationHeader[] = "roadmine-gbt v1";
}  // namespace

std::string GradientBoostedTrees::Serialize() const {
  std::string out = kSerializationHeader;
  out += "\nbase\t" + SerializeDouble(base_score_) + "\n";
  AppendFeatureSection(features_, &out);
  out += "trees " + std::to_string(trees_.size()) + "\n";
  for (const std::vector<Node>& tree : trees_) {
    out += "tree " + std::to_string(tree.size()) + "\n";
    for (const Node& node : tree) {
      out += "node\t";
      out += std::to_string(node.is_leaf ? 1 : 0) + "\t";
      out += std::to_string(node.feature) + "\t";
      out += SerializeDouble(node.threshold) + "\t";
      out += std::to_string(node.missing_goes_left ? 1 : 0) + "\t";
      out += std::to_string(node.left) + "\t";
      out += std::to_string(node.right) + "\t";
      out += SerializeDouble(node.leaf_value) + "\t";
      AppendCategoryMask(node.left_categories, &out);
      out += "\n";
    }
  }
  return out;
}

Result<GradientBoostedTrees> GradientBoostedTrees::Deserialize(
    const std::string& text, const data::Dataset& dataset) {
  LineCursor cursor(text);
  const std::string* header = cursor.Next();
  if (header == nullptr || *header != kSerializationHeader) {
    return InvalidArgumentError("bad serialization header");
  }
  GradientBoostedTrees model;

  const std::string* base_line = cursor.Next();
  if (base_line == nullptr) return InvalidArgumentError("missing base line");
  {
    const std::vector<std::string> parts = util::Split(*base_line, '\t');
    if (parts.size() != 2 || parts[0] != "base" ||
        !util::ParseDouble(parts[1], &model.base_score_)) {
      return InvalidArgumentError("bad base line: " + *base_line);
    }
  }

  auto features = ParseFeatureSection(cursor, dataset);
  if (!features.ok()) return features.status();
  model.features_ = std::move(*features);

  auto tree_count = ParseCountLine(cursor, "trees");
  if (!tree_count.ok()) return tree_count.status();
  if (*tree_count <= 0) return InvalidArgumentError("no trees");
  for (int64_t t = 0; t < *tree_count; ++t) {
    auto node_count = ParseCountLine(cursor, "tree");
    if (!node_count.ok()) return node_count.status();
    if (*node_count <= 0) return InvalidArgumentError("empty tree block");
    std::vector<Node> tree;  // Not reserved: the count is unchecked.
    for (int64_t i = 0; i < *node_count; ++i) {
      const std::string* line = cursor.Next();
      if (line == nullptr) return InvalidArgumentError("truncated tree");
      const std::vector<std::string> parts = util::Split(*line, '\t');
      if (parts.size() != 9 || parts[0] != "node") {
        return InvalidArgumentError("bad node line: " + *line);
      }
      Node node;
      int64_t value = 0;
      if (!util::ParseInt(parts[1], &value)) {
        return InvalidArgumentError("bad is_leaf");
      }
      node.is_leaf = value != 0;
      if (!util::ParseInt(parts[2], &value) || value < 0) {
        return InvalidArgumentError("bad feature index");
      }
      if (!node.is_leaf) {
        if (static_cast<size_t>(value) >= model.features_.size()) {
          return InvalidArgumentError("feature index out of range");
        }
        node.feature = static_cast<size_t>(value);
      }
      if (!ParseThreshold(parts[3], &node.threshold)) {
        return InvalidArgumentError("bad threshold");
      }
      if (!util::ParseInt(parts[4], &value)) {
        return InvalidArgumentError("bad missing direction");
      }
      node.missing_goes_left = value != 0;
      if (!ParseChild(parts[5], &node.left)) {
        return InvalidArgumentError("bad left child");
      }
      if (!ParseChild(parts[6], &node.right)) {
        return InvalidArgumentError("bad right child");
      }
      if (!util::ParseDouble(parts[7], &node.leaf_value)) {
        return InvalidArgumentError("bad leaf value");
      }
      ROADMINE_RETURN_IF_ERROR(
          ParseCategoryMask(parts[8], &node.left_categories));
      tree.push_back(std::move(node));
    }
    ROADMINE_RETURN_IF_ERROR(CheckTreeLinks(tree));
    model.trees_.push_back(std::move(tree));
  }
  return model;
}

}  // namespace roadmine::ml
