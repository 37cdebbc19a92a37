#include "ml/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/common.h"

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Result;

namespace {

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

// k-means++ seeding: each new center is drawn with probability proportional
// to the squared distance to the nearest existing center.
std::vector<std::vector<double>> SeedCenters(
    const std::vector<std::vector<double>>& points, size_t k, util::Rng& rng) {
  std::vector<std::vector<double>> centers;
  centers.reserve(k);
  const size_t n = points.size();
  centers.push_back(points[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(n) - 1))]);

  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  while (centers.size() < k) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      min_dist[i] =
          std::min(min_dist[i], SquaredDistance(points[i], centers.back()));
      total += min_dist[i];
    }
    if (total <= 0.0) {
      // All remaining points coincide with centers; duplicate one.
      centers.push_back(points[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1))]);
      continue;
    }
    double pick = rng.Uniform() * total;
    size_t chosen = n - 1;
    for (size_t i = 0; i < n; ++i) {
      pick -= min_dist[i];
      if (pick <= 0.0) {
        chosen = i;
        break;
      }
    }
    centers.push_back(points[chosen]);
  }
  return centers;
}

KMeansResult LloydIterate(const std::vector<std::vector<double>>& points,
                          std::vector<std::vector<double>> centers,
                          const KMeansParams& params) {
  const size_t n = points.size();
  const size_t k = centers.size();
  const size_t dim = points[0].size();

  KMeansResult result;
  result.assignments.assign(n, -1);
  result.sizes.assign(k, 0);

  for (int iter = 0; iter < params.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Assignment step.
    bool changed = false;
    std::fill(result.sizes.begin(), result.sizes.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      int best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        const double d = SquaredDistance(points[i], centers[c]);
        if (d < best) {
          best = d;
          best_c = static_cast<int>(c);
        }
      }
      if (result.assignments[i] != best_c) {
        result.assignments[i] = best_c;
        changed = true;
      }
      ++result.sizes[static_cast<size_t>(best_c)];
    }

    // Update step.
    std::vector<std::vector<double>> new_centers(
        k, std::vector<double>(dim, 0.0));
    for (size_t i = 0; i < n; ++i) {
      const auto c = static_cast<size_t>(result.assignments[i]);
      for (size_t j = 0; j < dim; ++j) new_centers[c][j] += points[i][j];
    }
    double max_move = 0.0;
    for (size_t c = 0; c < k; ++c) {
      if (result.sizes[c] == 0) {
        // Empty cluster: restart it at the point farthest from its center.
        size_t farthest = 0;
        double far_d = -1.0;
        for (size_t i = 0; i < n; ++i) {
          const double d = SquaredDistance(
              points[i], centers[static_cast<size_t>(result.assignments[i])]);
          if (d > far_d) {
            far_d = d;
            farthest = i;
          }
        }
        new_centers[c] = points[farthest];
        changed = true;
      } else {
        const double inv = 1.0 / static_cast<double>(result.sizes[c]);
        for (size_t j = 0; j < dim; ++j) new_centers[c][j] *= inv;
      }
      max_move = std::max(max_move, SquaredDistance(new_centers[c], centers[c]));
    }
    centers = std::move(new_centers);
    if (!changed || max_move < params.tolerance * params.tolerance) break;
  }

  result.inertia = 0.0;
  std::fill(result.sizes.begin(), result.sizes.end(), 0);
  for (size_t i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::max();
    int best_c = 0;
    for (size_t c = 0; c < k; ++c) {
      const double d = SquaredDistance(points[i], centers[c]);
      if (d < best) {
        best = d;
        best_c = static_cast<int>(c);
      }
    }
    result.assignments[i] = best_c;
    ++result.sizes[static_cast<size_t>(best_c)];
    result.inertia += best;
  }
  result.centers = std::move(centers);
  return result;
}

}  // namespace

Result<KMeansResult> KMeans::Fit(const data::Dataset& dataset,
                                 const std::vector<std::string>& feature_columns,
                                 const std::vector<size_t>& rows) {
  if (params_.k == 0) return InvalidArgumentError("k must be >= 1");
  if (rows.size() < params_.k) {
    return InvalidArgumentError("fewer rows than clusters");
  }
  ROADMINE_RETURN_IF_ERROR(CheckFitRows(rows, dataset.num_rows()));
  ROADMINE_RETURN_IF_ERROR(encoder_.Fit(dataset, feature_columns, rows));
  auto matrix = encoder_.Transform(dataset, rows);
  if (!matrix.ok()) return matrix.status();

  util::Rng rng(params_.seed);
  KMeansResult best;
  best.inertia = std::numeric_limits<double>::max();
  const int restarts = std::max(params_.restarts, 1);
  for (int attempt = 0; attempt < restarts; ++attempt) {
    util::Rng attempt_rng = rng.Fork();
    auto centers = SeedCenters(*matrix, params_.k, attempt_rng);
    KMeansResult result = LloydIterate(*matrix, std::move(centers), params_);
    if (result.inertia < best.inertia) best = std::move(result);
  }
  return best;
}

}  // namespace roadmine::ml
