#include "core/deployment.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "roadgen/dataset_builder.h"
#include "util/string_util.h"
#include "util/text_table.h"

namespace roadmine::core {

using util::InvalidArgumentError;
using util::Result;

namespace {

// Flags the treatable attribute deficits of one segment row.
std::vector<std::string> RecommendTreatments(const data::Dataset& ds,
                                             size_t row,
                                             const DeploymentConfig& config) {
  std::vector<std::string> treatments;
  auto numeric = [&](const char* name, double* out) {
    auto col = ds.ColumnByName(name);
    if (!col.ok() || (*col)->type() != data::ColumnType::kNumeric ||
        (*col)->IsMissing(row)) {
      return false;
    }
    *out = (*col)->NumericAt(row);
    return true;
  };
  double value = 0.0;
  if (numeric("f60", &value) && value < config.f60_floor) {
    treatments.push_back("reseal: skid resistance below floor");
  }
  if (numeric("texture_depth", &value) && value < config.texture_floor) {
    treatments.push_back("retexture: texture depth below floor");
  }
  if (numeric("seal_age", &value) && value > config.seal_age_ceiling) {
    treatments.push_back("reseal: surface beyond design life");
  }
  if (numeric("shoulder_width", &value) && value < config.shoulder_floor) {
    treatments.push_back("widen shoulder");
  }
  if (numeric("roughness_iri", &value) && value > config.roughness_ceiling) {
    treatments.push_back("rehabilitate: roughness above ceiling");
  }
  if (treatments.empty()) {
    treatments.push_back("investigate: no surface deficit flagged");
  }
  return treatments;
}

// Ranks pre-computed per-row probabilities into the works program. The
// shared back half of both BuildWorksProgram overloads.
Result<WorksProgram> AssembleProgram(const data::Dataset& segments,
                                     const std::vector<double>& probabilities,
                                     const DeploymentConfig& config) {
  auto id_col = segments.ColumnByName(roadgen::kSegmentIdColumn);
  if (!id_col.ok()) return id_col.status();
  auto count_col = segments.ColumnByName(roadgen::kSegmentCrashCountColumn);
  if (!count_col.ok()) return count_col.status();
  if (segments.num_rows() == 0) return InvalidArgumentError("no segments");

  struct Scored {
    size_t row;
    double probability;
  };
  std::vector<Scored> scored;
  scored.reserve(segments.num_rows());
  for (size_t r = 0; r < segments.num_rows(); ++r) {
    scored.push_back({r, probabilities[r]});
  }

  // Top-decile agreement between model ranking and observed counts.
  const size_t decile = std::max<size_t>(1, segments.num_rows() / 10);
  std::vector<size_t> by_probability(segments.num_rows());
  std::vector<size_t> by_count(segments.num_rows());
  for (size_t r = 0; r < segments.num_rows(); ++r) {
    by_probability[r] = r;
    by_count[r] = r;
  }
  // Ties break on row index so the ranking is a total order — the paged
  // builder reproduces it from bounded heaps, and std::sort's unspecified
  // tie behavior never leaks into the program.
  std::sort(by_probability.begin(), by_probability.end(),
            [&](size_t a, size_t b) {
              if (scored[a].probability != scored[b].probability) {
                return scored[a].probability > scored[b].probability;
              }
              return a < b;
            });
  std::sort(by_count.begin(), by_count.end(), [&](size_t a, size_t b) {
    const double ca = (*count_col)->NumericAt(a);
    const double cb = (*count_col)->NumericAt(b);
    if (ca != cb) return ca > cb;
    return a < b;
  });
  std::vector<uint8_t> in_count_decile(segments.num_rows(), 0);
  for (size_t i = 0; i < decile; ++i) in_count_decile[by_count[i]] = 1;
  size_t overlap = 0;
  for (size_t i = 0; i < decile; ++i) {
    overlap += in_count_decile[by_probability[i]];
  }

  WorksProgram program;
  program.top_decile_agreement =
      static_cast<double>(overlap) / static_cast<double>(decile);

  for (size_t i = 0; i < by_probability.size(); ++i) {
    const Scored& entry = scored[by_probability[i]];
    if (entry.probability < config.min_probability) break;
    if (config.max_segments != 0 &&
        program.segments.size() >= config.max_segments) {
      break;
    }
    RankedSegment ranked;
    ranked.segment_id =
        static_cast<int64_t>((*id_col)->NumericAt(entry.row));
    ranked.crash_prone_probability = entry.probability;
    ranked.observed_crash_count = (*count_col)->NumericAt(entry.row);
    ranked.recommended_treatments =
        RecommendTreatments(segments, entry.row, config);
    program.segments.push_back(std::move(ranked));
  }
  return program;
}

}  // namespace

Result<WorksProgram> BuildWorksProgram(const data::Dataset& segments,
                                       const ml::Predictor& model,
                                       const DeploymentConfig& config) {
  std::vector<size_t> rows(segments.num_rows());
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  auto probabilities = model.PredictBatch(segments, rows);
  if (!probabilities.ok()) return probabilities.status();
  return AssembleProgram(segments, *probabilities, config);
}

namespace {

// One streaming survivor: the global row and its score or observed count.
struct PagedEntry {
  uint64_t row = 0;
  double key = 0.0;  // Probability or observed count, per heap.
};

// A survivor of the line heap, with its fully assembled program line —
// built while the row's page was resident, since the page is gone by the
// time the final ranking is known.
struct PagedLine : PagedEntry {
  RankedSegment ranked;
};

// Ranking order: higher key wins, ties go to the earlier row. As a heap
// comparator this parks the WORST survivor at the front, where eviction
// wants it — and it mirrors AssembleProgram's sort tie-breaks exactly,
// which is what makes the paged program identical.
struct PagedBeats {
  bool operator()(const PagedEntry& a, const PagedEntry& b) const {
    if (a.key != b.key) return a.key > b.key;
    return a.row < b.row;
  }
};

// The best `capacity` entries seen so far, as a heap with the worst
// survivor at the front.
template <typename T>
class BoundedHeap {
 public:
  explicit BoundedHeap(size_t capacity) : capacity_(capacity) {}

  // Whether `entry` would be kept.
  bool Admits(const PagedEntry& entry) const {
    return items_.size() < capacity_ ||
           (capacity_ > 0 && PagedBeats()(entry, items_.front()));
  }

  // Inserts an item Admits() accepted, evicting the worst when full.
  void Insert(T item) {
    if (items_.size() == capacity_) {
      std::pop_heap(items_.begin(), items_.end(), PagedBeats());
      items_.pop_back();
    }
    items_.push_back(std::move(item));
    std::push_heap(items_.begin(), items_.end(), PagedBeats());
  }

  // The survivors, in heap order.
  const std::vector<T>& items() const { return items_; }

  // The survivors, best first.
  std::vector<T> BestFirst() && {
    std::sort_heap(items_.begin(), items_.end(), PagedBeats());
    return std::move(items_);
  }

 private:
  size_t capacity_;
  std::vector<T> items_;
};

}  // namespace

Result<WorksProgram> BuildWorksProgramPaged(data::RowSource& segments,
                                            const ml::Predictor& model,
                                            const DeploymentConfig& config) {
  const data::TableSchema& schema = segments.schema();
  auto id_idx = schema.ColumnIndex(roadgen::kSegmentIdColumn);
  if (!id_idx.ok()) return id_idx.status();
  auto count_idx = schema.ColumnIndex(roadgen::kSegmentCrashCountColumn);
  if (!count_idx.ok()) return count_idx.status();

  // The row count fixes the decile — and with it both decile heap bounds
  // — before any scoring. Trust the source's hint; spend a counting pass
  // when it has none.
  uint64_t total = 0;
  if (auto hint = segments.TotalRowsHint(); hint.has_value()) {
    total = *hint;
  } else {
    ROADMINE_RETURN_IF_ERROR(segments.Reset());
    for (;;) {
      auto page = segments.Next();
      if (!page.ok()) return page.status();
      if (*page == nullptr) break;
      total += (*page)->num_rows();
    }
  }
  if (total == 0) return InvalidArgumentError("no segments");

  // Two decile heaps of (row, key) pairs decide the agreement; program
  // lines are assembled only for rows that enter the line heap.
  const size_t decile = std::max<size_t>(1, static_cast<size_t>(total / 10));
  const size_t keep_lines = config.max_segments == 0
                                ? static_cast<size_t>(total)
                                : config.max_segments;
  BoundedHeap<PagedEntry> by_probability(decile);
  BoundedHeap<PagedEntry> by_count(decile);
  BoundedHeap<PagedLine> lines(keep_lines);
  std::vector<size_t> page_rows;
  uint64_t seen = 0;
  ROADMINE_RETURN_IF_ERROR(segments.Reset());
  for (;;) {
    auto page = segments.Next();
    if (!page.ok()) return page.status();
    if (*page == nullptr) break;
    const data::Dataset& ds = **page;
    const size_t n = ds.num_rows();
    page_rows.resize(n);
    std::iota(page_rows.begin(), page_rows.end(), size_t{0});
    auto probabilities = model.PredictBatch(ds, page_rows);
    if (!probabilities.ok()) return probabilities.status();
    const data::Column& ids = ds.column(*id_idx);
    const data::Column& counts = ds.column(*count_idx);
    for (size_t r = 0; r < n; ++r) {
      const uint64_t global_row = seen + r;
      const double count = counts.NumericAt(r);
      const PagedEntry by_count_entry{global_row, count};
      if (by_count.Admits(by_count_entry)) by_count.Insert(by_count_entry);
      const PagedEntry candidate{global_row, (*probabilities)[r]};
      if (by_probability.Admits(candidate)) by_probability.Insert(candidate);
      // Treatments need the page, which won't outlive this loop.
      if (lines.Admits(candidate)) {
        PagedLine line{candidate, {}};
        line.ranked.segment_id = static_cast<int64_t>(ids.NumericAt(r));
        line.ranked.crash_prone_probability = candidate.key;
        line.ranked.observed_crash_count = count;
        line.ranked.recommended_treatments =
            RecommendTreatments(ds, r, config);
        lines.Insert(std::move(line));
      }
    }
    seen += n;
  }
  if (seen != total) {
    return util::DataLossError("row source changed size between passes");
  }

  // The decile heaps hold the top decile of AssembleProgram's
  // by_probability and by_count orders, in heap order; the agreement is
  // the size of their overlap.
  std::vector<uint64_t> count_decile_rows;
  count_decile_rows.reserve(by_count.items().size());
  for (const PagedEntry& entry : by_count.items()) {
    count_decile_rows.push_back(entry.row);
  }
  std::sort(count_decile_rows.begin(), count_decile_rows.end());
  size_t overlap = 0;
  for (const PagedEntry& entry : by_probability.items()) {
    overlap += std::binary_search(count_decile_rows.begin(),
                                  count_decile_rows.end(), entry.row)
                   ? 1
                   : 0;
  }
  WorksProgram program;
  program.top_decile_agreement =
      static_cast<double>(overlap) / static_cast<double>(decile);
  for (PagedLine& line : std::move(lines).BestFirst()) {
    if (line.key < config.min_probability) break;
    program.segments.push_back(std::move(line.ranked));
  }
  return program;
}

Result<WorksProgram> BuildWorksProgram(const data::Dataset& segments,
                                       const SegmentScorer& scorer,
                                       const DeploymentConfig& config) {
  if (!scorer) return InvalidArgumentError("null scorer");
  std::vector<double> probabilities;
  probabilities.reserve(segments.num_rows());
  for (size_t r = 0; r < segments.num_rows(); ++r) {
    probabilities.push_back(scorer(segments, r));
  }
  return AssembleProgram(segments, probabilities, config);
}

std::string RenderWorksProgram(const WorksProgram& program, size_t max_rows) {
  util::TextTable table(
      {"rank", "segment", "P(crash-prone)", "4yr crashes", "treatments"});
  for (size_t i = 0; i < program.segments.size() && i < max_rows; ++i) {
    const RankedSegment& s = program.segments[i];
    table.AddRow({std::to_string(i + 1), std::to_string(s.segment_id),
                  util::FormatDouble(s.crash_prone_probability, 3),
                  util::FormatDouble(s.observed_crash_count, 0),
                  util::Join(s.recommended_treatments, "; ")});
  }
  table.AddFooter("listed segments: " +
                  std::to_string(program.segments.size()));
  table.AddFooter("top-decile agreement with observed counts: " +
                  util::FormatDouble(program.top_decile_agreement, 3));
  return table.Render();
}

}  // namespace roadmine::core
