// The unified chunked-row-stream abstraction behind every data entry
// point: CSV ingest (CsvChunkReader), on-disk paged datasets
// (PagedDataset::Pages), and in-memory tables (DatasetSource).
//
// A RowSource yields a sequence of Dataset chunks that all share one
// TableSchema (same column names, types, and categorical dictionaries,
// in the same order). Consumers that can work a chunk at a time — the
// streaming encoder fit, paged GBT training, paged scoring sweeps —
// accept a RowSource& and never learn whether the rows live in RAM, in a
// file, or in a page directory. Chunk boundaries are an implementation
// detail: a conforming consumer produces bit-identical results for any
// chunking of the same rows (the data-layer twin of the exec layer's
// chunk-invariance contract).
#ifndef ROADMINE_DATA_ROW_SOURCE_H_
#define ROADMINE_DATA_ROW_SOURCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace roadmine::data {

// One column of a row stream's shared schema.
struct ColumnSpec {
  std::string name;
  ColumnType type = ColumnType::kNumeric;
  // kCategorical only: the full dictionary, shared by every chunk.
  std::vector<std::string> categories;
};

// The column layout every chunk of a RowSource carries. Chunks are full
//-width: chunk column i has the name/type/dictionary of columns[i].
struct TableSchema {
  std::vector<ColumnSpec> columns;

  static TableSchema FromDataset(const Dataset& dataset);

  size_t num_columns() const { return columns.size(); }

  // Index of the named column; error if absent.
  [[nodiscard]] util::Result<size_t> ColumnIndex(const std::string& name) const;

  // Verifies a chunk matches this schema (names, types, and — for
  // categorical columns — dictionary width).
  [[nodiscard]] util::Status Matches(const Dataset& chunk) const;
};

// An abstract forward stream of row chunks under one schema.
//
// Contract:
//   * schema() is fixed for the life of the source;
//   * Next() returns the next chunk, or nullptr at end of stream; the
//     returned pointer stays valid until the next Next()/Reset() call,
//     whatever that call returns (a chunk, nullptr or an error), so a
//     source may release a chunk before it produces the next;
//   * Reset() rewinds to the first chunk so multi-pass consumers (two-
//     pass encoder fits, per-tree training sweeps) can re-read;
//   * TotalRowsHint() is the exact row count when the source knows it up
//     front (in-memory tables, paged datasets), nullopt otherwise.
class RowSource {
 public:
  virtual ~RowSource() = default;

  virtual const TableSchema& schema() const = 0;
  virtual std::optional<uint64_t> TotalRowsHint() const { return std::nullopt; }
  [[nodiscard]] virtual util::Status Reset() = 0;
  [[nodiscard]] virtual util::Result<const Dataset*> Next() = 0;
};

// In-memory adapter: streams an existing Dataset as chunks.
//
// Whole-table mode (no row subset, chunk_rows 0) is zero-copy: Next()
// hands out the dataset itself as a single chunk. A row subset, or an
// explicit chunk_rows, streams gathered copies of at most chunk_rows
// rows at a time — O(chunk) extra memory, and the way the in-RAM
// FeatureEncoder::Fit(dataset, cols, rows) delegates to the streaming
// fit without materializing a gathered table.
class DatasetSource : public RowSource {
 public:
  // Streams all rows. chunk_rows 0 = one zero-copy chunk.
  explicit DatasetSource(const Dataset& dataset, size_t chunk_rows = 0);

  // Streams `rows` (in order, duplicates allowed) in gathered chunks of
  // at most chunk_rows rows.
  DatasetSource(const Dataset& dataset, std::vector<size_t> rows,
                size_t chunk_rows = 8192);

  const TableSchema& schema() const override { return schema_; }
  std::optional<uint64_t> TotalRowsHint() const override;
  [[nodiscard]] util::Status Reset() override;
  [[nodiscard]] util::Result<const Dataset*> Next() override;

 private:
  const Dataset* dataset_;
  TableSchema schema_;
  std::vector<size_t> rows_;  // empty = all rows, streamed zero-copy
  bool subset_ = false;
  size_t chunk_rows_ = 0;  // 0 = single chunk
  size_t cursor_ = 0;      // next row position within the stream
  bool done_ = false;      // whole-table single chunk already emitted
  Dataset chunk_;          // gathered staging for subset/chunked mode
};

}  // namespace roadmine::data

#endif  // ROADMINE_DATA_ROW_SOURCE_H_
