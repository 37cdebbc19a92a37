// PagedDataset: the on-disk row-group format. Round-trips must be
// bit-exact (binary floats), damaged pages must fail loudly, and the
// prefetching PageStream must yield the same bytes at any thread count.
#include "data/paged_dataset.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/row_source.h"
#include "exec/executor.h"

namespace roadmine::data {
namespace {

Dataset AwkwardDataset() {
  // Values chosen so text round-trips would lose bits: denormals, long
  // fractions, NaN missing, plus a categorical with missing codes.
  std::vector<double> x;
  for (int i = 0; i < 23; ++i) {
    x.push_back(i == 7 ? std::numeric_limits<double>::quiet_NaN()
                       : 0.1 * i + 1e-17 * i);
  }
  std::vector<std::string> kind;
  const char* names[] = {"alpha", "beta", "gamma"};
  for (int i = 0; i < 23; ++i) {
    kind.push_back(i % 5 == 3 ? "" : names[i % 3]);
  }
  Dataset ds;
  EXPECT_TRUE(ds.AddColumn(Column::Numeric("x", std::move(x))).ok());
  EXPECT_TRUE(
      ds.AddColumn(Column::CategoricalFromStrings("kind", kind)).ok());
  return ds;
}

// Writes `ds` to a fresh page directory in chunks of uneven sizes so the
// writer's internal re-paging is exercised.
std::string WritePages(const Dataset& ds, size_t page_rows,
                       const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/paged_" + tag;
  std::filesystem::remove_all(dir);
  auto writer = PagedDatasetWriter::Create(dir, TableSchema::FromDataset(ds),
                                           {.page_rows = page_rows});
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  size_t pos = 0;
  const size_t chunk_sizes[] = {3, 8, 1, 11};
  for (size_t i = 0; pos < ds.num_rows(); ++i) {
    const size_t take =
        std::min(chunk_sizes[i % 4], ds.num_rows() - pos);
    std::vector<size_t> rows(take);
    for (size_t r = 0; r < take; ++r) rows[r] = pos + r;
    EXPECT_TRUE((*writer)->Append(ds.GatherRows(rows)).ok());
    pos += take;
  }
  EXPECT_TRUE((*writer)->Finish().ok());
  EXPECT_EQ((*writer)->rows_written(), ds.num_rows());
  return dir;
}

bool SameRows(const Dataset& a, size_t a_row, const Dataset& b,
              size_t b_row) {
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& x = a.column(c);
    const Column& y = b.column(c);
    if (x.type() == ColumnType::kNumeric) {
      const double xv = x.NumericAt(a_row);
      const double yv = y.NumericAt(b_row);
      if (xv != yv && !(std::isnan(xv) && std::isnan(yv))) return false;
    } else if (x.CodeAt(a_row) != y.CodeAt(b_row)) {
      return false;
    }
  }
  return true;
}

TEST(PagedDatasetTest, RoundTripsBitExactAcrossUnevenAppends) {
  const Dataset ds = AwkwardDataset();
  const std::string dir = WritePages(ds, /*page_rows=*/5, "roundtrip");

  auto paged = PagedDataset::Open(dir);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_EQ(paged->total_rows(), 23u);
  EXPECT_EQ(paged->page_rows(), 5u);
  EXPECT_EQ(paged->num_pages(), 5u);  // 4 full pages + 3-row tail.
  EXPECT_EQ(paged->RowsInPage(0), 5u);
  EXPECT_EQ(paged->RowsInPage(4), 3u);
  ASSERT_EQ(paged->schema().num_columns(), 2u);
  EXPECT_EQ(paged->schema().columns[1].categories,
            (std::vector<std::string>{"alpha", "beta", "gamma"}));

  size_t row = 0;
  for (size_t p = 0; p < paged->num_pages(); ++p) {
    auto page = paged->ReadPage(p);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    ASSERT_EQ(page->num_rows(), paged->RowsInPage(p));
    for (size_t r = 0; r < page->num_rows(); ++r, ++row) {
      EXPECT_TRUE(SameRows(*page, r, ds, row)) << "row " << row;
    }
  }
  EXPECT_EQ(row, ds.num_rows());
}

TEST(PagedDatasetTest, PageStreamMatchesReadPageAtAnyThreadCount) {
  const Dataset ds = AwkwardDataset();
  const std::string dir = WritePages(ds, /*page_rows=*/4, "stream");
  auto paged = PagedDataset::Open(dir);
  ASSERT_TRUE(paged.ok());

  auto drain = [&](exec::Executor* executor) {
    std::vector<Dataset> pages;
    PagedDataset::PageStream stream = paged->Pages(executor);
    EXPECT_EQ(stream.TotalRowsHint(), std::optional<uint64_t>(23));
    for (;;) {
      auto chunk = stream.Next();
      EXPECT_TRUE(chunk.ok()) << chunk.status().ToString();
      if (*chunk == nullptr) break;
      pages.push_back(**chunk);
    }
    return pages;
  };

  const std::vector<Dataset> serial = drain(nullptr);
  ASSERT_EQ(serial.size(), paged->num_pages());
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    exec::ThreadPool pool(threads);
    const std::vector<Dataset> prefetched = drain(&pool);
    ASSERT_EQ(prefetched.size(), serial.size()) << threads << " threads";
    for (size_t p = 0; p < serial.size(); ++p) {
      ASSERT_EQ(prefetched[p].num_rows(), serial[p].num_rows());
      for (size_t r = 0; r < serial[p].num_rows(); ++r) {
        EXPECT_TRUE(SameRows(prefetched[p], r, serial[p], r))
            << threads << " threads, page " << p << ", row " << r;
      }
    }
  }
}

TEST(PagedDatasetTest, PageStreamResetReplays) {
  const Dataset ds = AwkwardDataset();
  const std::string dir = WritePages(ds, /*page_rows=*/6, "reset");
  auto paged = PagedDataset::Open(dir);
  ASSERT_TRUE(paged.ok());
  PagedDataset::PageStream stream = paged->Pages();
  uint64_t first = 0;
  uint64_t second = 0;
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_TRUE(stream.Reset().ok());
    for (;;) {
      auto chunk = stream.Next();
      ASSERT_TRUE(chunk.ok());
      if (*chunk == nullptr) break;
      (pass == 0 ? first : second) += (*chunk)->num_rows();
    }
  }
  EXPECT_EQ(first, 23u);
  EXPECT_EQ(second, 23u);
}

TEST(PagedDatasetTest, OpenFailsOnMissingOrUnfinishedDirectories) {
  EXPECT_FALSE(PagedDataset::Open("/no/such/page/dir").ok());

  // Created but never Finish()ed: no pages.meta yet, so unreadable.
  const std::string dir = ::testing::TempDir() + "/paged_unfinished";
  std::filesystem::remove_all(dir);
  const Dataset ds = AwkwardDataset();
  auto writer = PagedDatasetWriter::Create(
      dir, TableSchema::FromDataset(ds), {.page_rows = 8});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(ds).ok());
  EXPECT_FALSE(PagedDataset::Open(dir).ok());
}

TEST(PagedDatasetTest, CorruptedPageFailsChecksum) {
  const Dataset ds = AwkwardDataset();
  const std::string dir = WritePages(ds, /*page_rows=*/5, "corrupt");
  auto paged = PagedDataset::Open(dir);
  ASSERT_TRUE(paged.ok());
  ASSERT_TRUE(paged->ReadPage(1).ok());

  const std::string page_path = dir + "/page_000001.rmpg";
  const auto size = std::filesystem::file_size(page_path);
  {
    std::fstream f(page_path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.write(&byte, 1);
  }
  auto damaged = paged->ReadPage(1);
  ASSERT_FALSE(damaged.ok());
  // Other pages stay readable: corruption is detected per page.
  EXPECT_TRUE(paged->ReadPage(0).ok());
}

TEST(PagedDatasetTest, TruncatedPageFails) {
  const Dataset ds = AwkwardDataset();
  const std::string dir = WritePages(ds, /*page_rows=*/5, "truncate");
  auto paged = PagedDataset::Open(dir);
  ASSERT_TRUE(paged.ok());

  const std::string page_path = dir + "/page_000002.rmpg";
  const auto size = std::filesystem::file_size(page_path);
  std::filesystem::resize_file(page_path, size / 2);
  EXPECT_FALSE(paged->ReadPage(2).ok());

  std::filesystem::remove(page_path);
  EXPECT_FALSE(paged->ReadPage(2).ok());
}

// Overwrites `bytes` at `offset` in a page-format file and re-signs it
// with a valid FNV-1a checksum, so only the decoder's own checks stand
// between the forged counts and an allocation.
template <typename T>
void ForgeField(const std::string& path, size_t offset, T value) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GE(bytes.size(), offset + sizeof(T) + 8);
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
  uint64_t hash = 14695981039346656037ULL;
  for (size_t i = 0; i + 8 < bytes.size(); ++i) {
    hash ^= static_cast<unsigned char>(bytes[i]);
    hash *= 1099511628211ULL;
  }
  std::memcpy(bytes.data() + bytes.size() - 8, &hash, 8);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// pages.meta: magic, u32 version, then u64 page_rows, num_pages,
// total_rows, u32 num_columns, then per column u8 type, u32-length name,
// u32 category count. AwkwardDataset's columns are "x" then "kind".
constexpr size_t kMetaPageRows = 8;
constexpr size_t kMetaNumPages = 16;
constexpr size_t kMetaTotalRows = 24;
constexpr size_t kMetaKindCategories = 36 + (1 + 4 + 1 + 4) + (1 + 4 + 4);
// page file: magic, u32 version, u64 page_index, then u64 num_rows.
constexpr size_t kPageNumRows = 16;

TEST(PagedDatasetTest, ForgedCategoryCountIsDataLossNotAnAllocation) {
  const Dataset ds = AwkwardDataset();
  const std::string dir = WritePages(ds, /*page_rows=*/5, "forged_meta");
  ForgeField<uint32_t>(dir + "/pages.meta", kMetaKindCategories, 0xFFFFFFFFu);
  auto paged = PagedDataset::Open(dir);
  ASSERT_FALSE(paged.ok());
  EXPECT_EQ(paged.status().code(), util::StatusCode::kDataLoss);
}

TEST(PagedDatasetTest, ForgedRowCountsAreDataLossNotAnAllocation) {
  const Dataset ds = AwkwardDataset();
  const std::string dir = WritePages(ds, /*page_rows=*/5, "forged_rows");
  // A consistent meta claiming one page of 2^50 rows, and a first page
  // whose header agrees: the payload cannot hold them.
  const uint64_t huge = uint64_t{1} << 50;
  ForgeField<uint64_t>(dir + "/pages.meta", kMetaPageRows, huge);
  ForgeField<uint64_t>(dir + "/pages.meta", kMetaNumPages, 1);
  ForgeField<uint64_t>(dir + "/pages.meta", kMetaTotalRows, huge);
  ForgeField<uint64_t>(dir + "/page_000000.rmpg", kPageNumRows, huge);
  auto paged = PagedDataset::Open(dir);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  auto page = paged->ReadPage(0);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), util::StatusCode::kDataLoss);

  // A row total so large that rounding it up to whole pages wraps.
  ForgeField<uint64_t>(dir + "/pages.meta", kMetaPageRows, 2);
  ForgeField<uint64_t>(dir + "/pages.meta", kMetaNumPages, 0);
  ForgeField<uint64_t>(dir + "/pages.meta", kMetaTotalRows, ~uint64_t{0});
  auto wrapped = PagedDataset::Open(dir);
  ASSERT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.status().code(), util::StatusCode::kDataLoss);
}

}  // namespace
}  // namespace roadmine::data
