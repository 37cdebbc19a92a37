// Out-of-core row-group paged dataset (the xgboost page_dmatrix idea,
// adapted to roadmine's columnar Dataset).
//
// A paged dataset is a directory (page format version 2):
//   pages.meta        versioned binary header: schema (names, types,
//                     categorical dictionaries), page_rows, page count,
//                     total rows, checksum;
//   page_NNNNNN.rmpg  one row group per file: the page's rows in
//                     columnar binary form (raw doubles / int32 codes),
//                     checksum.
// Every page carries the full column set; pages are page_rows long
// except the last. The format is binary end to end — floats are stored
// as their 8 raw bytes, never as text (enforced by the `page-binary`
// lint rule), so round-trips are bit-exact by construction. Both file
// kinds end in a util::Checksum digest (util/checksum.h) of everything
// before it.
//
// PagedDatasetWriter streams arbitrary-size chunks in and re-pages them;
// PagedDataset::Pages() streams them back as a RowSource, prefetching
// the next page on an exec::Executor while the caller consumes the
// current one (double buffering: at most two pages resident per stream).
// A page is read in one pass with no whole-file buffer: its size is
// checked against the meta first, then each payload goes straight into
// its column and through the checksum.
#ifndef ROADMINE_DATA_PAGED_DATASET_H_
#define ROADMINE_DATA_PAGED_DATASET_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/row_source.h"
#include "exec/async.h"
#include "exec/executor.h"
#include "util/status.h"

namespace roadmine::data {

struct PagedDatasetOptions {
  // Rows per page file. Bounds the resident set of every paged
  // consumer: a reader holds one page at a time (two with prefetch:
  // the one it consumes and the one a worker reads).
  size_t page_rows = 65536;
};

// Streams chunks into a page directory. Create → Append* → Finish;
// Finish writes the meta file (nothing is readable before it). Each page
// written records a "data.page.write" span and adds its size to the
// "data.page.bytes_written" counter.
class PagedDatasetWriter {
 public:
  [[nodiscard]] static util::Result<std::unique_ptr<PagedDatasetWriter>> Create(
      const std::string& directory, TableSchema schema,
      PagedDatasetOptions options = {});

  // Appends a chunk (any row count; re-paged internally). The chunk
  // must match the writer's schema.
  [[nodiscard]] util::Status Append(const Dataset& chunk);

  // Flushes the partial last page and writes pages.meta.
  [[nodiscard]] util::Status Finish();

  uint64_t rows_written() const { return total_rows_; }

 private:
  PagedDatasetWriter() = default;
  [[nodiscard]] util::Status FlushPage();

  std::string directory_;
  TableSchema schema_;
  PagedDatasetOptions options_;
  // Per-column staging for the page being assembled.
  std::vector<std::vector<double>> numeric_;
  std::vector<std::vector<int32_t>> codes_;
  size_t buffered_rows_ = 0;
  size_t pages_written_ = 0;
  uint64_t total_rows_ = 0;
  bool finished_ = false;
};

// Read handle over a finished page directory. Cheap to copy (schema +
// counts; pages stay on disk). ReadPage is const and thread-safe, which
// is what lets Pages() prefetch on a pool worker.
class PagedDataset {
 public:
  // Reads and verifies pages.meta. A meta of another format version is
  // InvalidArgument (its version is checked before its checksum); any
  // other damage is DataLoss.
  [[nodiscard]] static util::Result<PagedDataset> Open(
      const std::string& directory);

  const std::string& directory() const { return directory_; }
  const TableSchema& schema() const { return schema_; }
  size_t page_rows() const { return page_rows_; }
  size_t num_pages() const { return num_pages_; }
  uint64_t total_rows() const { return total_rows_; }

  // Rows in page `index` (all pages are full except the last).
  size_t RowsInPage(size_t index) const;

  // Reads and verifies one page. Errors: an index past the last page
  // (InvalidArgument); missing file (NotFound); a path
  // that is not a regular file, a size other than the meta implies, a
  // checksum mismatch, or a header that disagrees with the meta
  // (DataLoss). Records a "data.page.read" span and adds the file's size
  // to the "data.page.bytes_read" counter.
  [[nodiscard]] util::Result<Dataset> ReadPage(size_t index) const;

  // Sequential RowSource over the pages. Without an executor, Next()
  // releases the previous page before it reads the next, so the stream
  // holds one page. With one, page i+1 is read on a worker while the
  // caller consumes page i; Next() records its wait for a prefetched page
  // as a "data.page.prefetch_wait" span. Destroying the stream drops its
  // page and, on glibc, returns the process's free heap memory to the
  // operating system (malloc_trim), so a finished scan does not stay
  // resident. The stream (and any in-flight prefetch) must not outlive
  // the PagedDataset.
  class PageStream : public RowSource {
   public:
    PageStream(const PagedDataset* dataset, exec::Executor* executor)
        : dataset_(dataset), executor_(executor) {}
    ~PageStream() override;

    PageStream(PageStream&&) = default;
    PageStream& operator=(PageStream&&) = default;

    const TableSchema& schema() const override { return dataset_->schema(); }
    std::optional<uint64_t> TotalRowsHint() const override {
      return dataset_->total_rows();
    }
    [[nodiscard]] util::Status Reset() override;
    [[nodiscard]] util::Result<const Dataset*> Next() override;

   private:
    struct Prefetch {
      exec::TaskLatch latch;
      Dataset page;
      size_t index = 0;
    };
    void Launch(size_t index);
    void DrainPrefetch();

    const PagedDataset* dataset_;
    exec::Executor* executor_;
    size_t next_index_ = 0;
    Dataset current_;
    std::shared_ptr<Prefetch> prefetch_;
  };

  PageStream Pages(exec::Executor* executor = nullptr) const {
    return PageStream(this, executor);
  }

 private:
  PagedDataset() = default;

  std::string directory_;
  TableSchema schema_;
  size_t page_rows_ = 0;
  size_t num_pages_ = 0;
  uint64_t total_rows_ = 0;
};

}  // namespace roadmine::data

#endif  // ROADMINE_DATA_PAGED_DATASET_H_
