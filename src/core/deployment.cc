#include "core/deployment.h"

#include <algorithm>
#include <numeric>

#include "roadgen/dataset_builder.h"
#include "util/string_util.h"
#include "util/text_table.h"
#include "util/top_k.h"

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

}  // namespace

Result<WorksProgram> BuildWorksProgramPaged(data::RowSource& segments,
                                            const ml::Predictor& model,
                                            const DeploymentConfig& config) {
  const data::TableSchema& schema = segments.schema();
  auto id_idx = schema.ColumnIndex(roadgen::kSegmentIdColumn);
  if (!id_idx.ok()) return id_idx.status();
  auto count_idx = schema.ColumnIndex(roadgen::kSegmentCrashCountColumn);
  if (!count_idx.ok()) return count_idx.status();

  // The row count fixes the decile — and with it both decile list bounds
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

  // Two decile lists of (key, row) pairs decide the agreement; program
  // lines are assembled only for rows the line list admits.
  const size_t decile = std::max<size_t>(1, static_cast<size_t>(total / 10));
  const size_t keep_lines = config.max_segments == 0
                                ? static_cast<size_t>(total)
                                : config.max_segments;
  util::TopK<> by_probability(decile);
  util::TopK<> by_count(decile);
  util::TopK<RankedSegment> lines(keep_lines);
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
      const double count = counts.NumericAt(r);
      by_count.Offer({count, seen + r});
      const util::RankKey scored{(*probabilities)[r], seen + r};
      by_probability.Offer(scored);
      // Treatments need the page, which won't outlive this loop.
      if (lines.Admits(scored)) {
        RankedSegment line;
        line.segment_id = static_cast<int64_t>(ids.NumericAt(r));
        line.crash_prone_probability = scored.key;
        line.observed_crash_count = count;
        line.recommended_treatments = RecommendTreatments(ds, r, config);
        lines.Insert(scored, std::move(line));
      }
    }
    seen += n;
  }
  if (seen != total) {
    return util::DataLossError("row source changed size between passes");
  }

  // The decile lists hold the top decile by probability and by observed
  // count; the agreement is the size of their overlap. The count
  // survivors are sorted by row in place to be searched.
  auto by_row = [](const util::RankKey& a, const util::RankKey& b) {
    return a.row < b.row;
  };
  auto count_decile = std::move(by_count).Survivors();
  std::sort(count_decile.begin(), count_decile.end(), by_row);
  size_t overlap = 0;
  for (const auto& entry : std::move(by_probability).Survivors()) {
    overlap += std::binary_search(count_decile.begin(), count_decile.end(),
                                  entry, by_row)
                   ? 1
                   : 0;
  }
  WorksProgram program;
  program.top_decile_agreement =
      static_cast<double>(overlap) / static_cast<double>(decile);
  for (auto& entry : std::move(lines).BestFirst()) {
    if (entry.key < config.min_probability) break;
    program.segments.push_back(std::move(entry.payload));
  }
  return program;
}

Result<WorksProgram> BuildWorksProgram(const data::Dataset& segments,
                                       const ml::Predictor& model,
                                       const DeploymentConfig& config) {
  data::DatasetSource source(segments);
  return BuildWorksProgramPaged(source, model, config);
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
