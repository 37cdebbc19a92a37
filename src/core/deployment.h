// Deployment scoring — the paper's future-work direction: "develop
// deployment to embed with a strategic and operational decision support
// system".
//
// Given the segment inventory and a trained crash-proneness model, produce
// a ranked works program: segments ordered by predicted crash-proneness,
// with the attribute deficits a road authority can actually treat (skid
// resistance, texture, seal age, shoulder width).
#ifndef ROADMINE_CORE_DEPLOYMENT_H_
#define ROADMINE_CORE_DEPLOYMENT_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/row_source.h"
#include "ml/predictor.h"
#include "util/status.h"

namespace roadmine::core {

struct RankedSegment {
  int64_t segment_id = 0;
  double crash_prone_probability = 0.0;
  double observed_crash_count = 0.0;  // For validation against history.
  // Treatable deficits flagged for this segment (subset of the treatment
  // vocabulary below).
  std::vector<std::string> recommended_treatments;
};

struct WorksProgram {
  std::vector<RankedSegment> segments;  // Descending probability.
  // How well the ranking agrees with observed history: Spearman-style
  // fraction of top-decile segments that are also top-decile by count.
  double top_decile_agreement = 0.0;
};

struct DeploymentConfig {
  // Keep the top `max_segments` (0 = all).
  size_t max_segments = 50;
  // Optional probability floor below which a segment is not listed. The
  // default keeps every segment: the program ranks by score, and a
  // rare-event model whose probabilities all sit below an arbitrary floor
  // (the old 0.5 default) would otherwise silently produce an empty
  // program. Opt in explicitly when an absolute floor is meaningful for
  // the model's calibration.
  double min_probability = 0.0;
  // Treatment trigger levels (attribute deficits worth flagging).
  double f60_floor = 0.45;          // Reseal / retexture trigger.
  double texture_floor = 1.0;       // mm.
  double seal_age_ceiling = 15.0;   // Years.
  double shoulder_floor = 1.0;      // m.
  double roughness_ceiling = 4.0;   // IRI.
};

// The works-program engine. Scores `segments` one chunk at a time through
// the model's batch path (any ml::Predictor: a trained model, a loaded
// one, or a compiled serve::FlatModel) and ranks from three bounded
// util::TopK lists: two of rows/10 bare (key, row) pairs for the
// top-decile agreement (by probability, by observed count) and one of
// config.max_segments program lines. Each list buffers at most its
// bound plus max(1, bound / 4) entries before cutting back, so memory use
// is one chunk plus ~2.5 x decile pairs plus ~1.25 x max_segments lines,
// never the whole network. A line (id, counts, treatments) is assembled only for a
// row the line list admits. Every list ranks by util::TopK's order (key
// descending with NaN — a missing count — last, row ascending), a total
// order, so the program is the same for any chunking of the same rows.
// With max_segments == 0 every row is listed, so that configuration is
// inherently O(rows); give a cap for out-of-core use. Sources without a
// TotalRowsHint() cost one extra counting pass to fix the decile size up
// front.
[[nodiscard]] util::Result<WorksProgram> BuildWorksProgramPaged(
    data::RowSource& segments, const ml::Predictor& model,
    const DeploymentConfig& config = {});

// The engine over an in-RAM segment-level dataset (one row per segment;
// see roadgen::BuildSegmentDataset), streamed as one zero-copy chunk.
[[nodiscard]] util::Result<WorksProgram> BuildWorksProgram(
    const data::Dataset& segments, const ml::Predictor& model,
    const DeploymentConfig& config = {});

// Text rendering for operations review.
std::string RenderWorksProgram(const WorksProgram& program,
                               size_t max_rows = 20);

}  // namespace roadmine::core

#endif  // ROADMINE_CORE_DEPLOYMENT_H_
