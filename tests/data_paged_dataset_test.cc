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
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/checksum.h"

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

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// Overwrites `bytes` at `offset` in a page-format file and re-signs it
// with the format's checksum, so only the decoder's own checks stand
// between the forged counts and an allocation.
template <typename T>
void ForgeField(const std::string& path, size_t offset, T value) {
  std::string bytes = ReadBytes(path);
  ASSERT_GE(bytes.size(), offset + sizeof(T) + 8);
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
  util::Checksum checksum;
  checksum.Update(bytes.data(), bytes.size() - 8);
  const uint64_t digest = checksum.Digest();
  std::memcpy(bytes.data() + bytes.size() - 8, &digest, 8);
  WriteBytes(path, bytes);
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

// A forged field is re-signed, so the decoder must catch it by its own
// check; a checksum mismatch here would mean the forgery never got that far.
void ExpectNotAChecksumError(const util::Status& status) {
  EXPECT_EQ(status.message().find("checksum"), std::string::npos)
      << status.ToString();
}

TEST(PagedDatasetTest, ForgedCategoryCountIsDataLossNotAnAllocation) {
  const Dataset ds = AwkwardDataset();
  const std::string dir = WritePages(ds, /*page_rows=*/5, "forged_meta");
  ForgeField<uint32_t>(dir + "/pages.meta", kMetaKindCategories, 0xFFFFFFFFu);
  auto paged = PagedDataset::Open(dir);
  ASSERT_FALSE(paged.ok());
  EXPECT_EQ(paged.status().code(), util::StatusCode::kDataLoss);
  ExpectNotAChecksumError(paged.status());
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
  ExpectNotAChecksumError(page.status());

  // One page of 2^62 rows: its byte size does not fit in 64 bits.
  const uint64_t vast = uint64_t{1} << 62;
  ForgeField<uint64_t>(dir + "/pages.meta", kMetaPageRows, vast);
  ForgeField<uint64_t>(dir + "/pages.meta", kMetaTotalRows, vast);
  auto vast_paged = PagedDataset::Open(dir);
  ASSERT_TRUE(vast_paged.ok()) << vast_paged.status().ToString();
  auto vast_page = vast_paged->ReadPage(0);
  ASSERT_FALSE(vast_page.ok());
  EXPECT_EQ(vast_page.status().code(), util::StatusCode::kDataLoss);
  ExpectNotAChecksumError(vast_page.status());

  // A row total so large that rounding it up to whole pages wraps.
  ForgeField<uint64_t>(dir + "/pages.meta", kMetaPageRows, 2);
  ForgeField<uint64_t>(dir + "/pages.meta", kMetaNumPages, 0);
  ForgeField<uint64_t>(dir + "/pages.meta", kMetaTotalRows, ~uint64_t{0});
  auto wrapped = PagedDataset::Open(dir);
  ASSERT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.status().code(), util::StatusCode::kDataLoss);
  ExpectNotAChecksumError(wrapped.status());
}

// A directory where a file should be has no size to trust: reading one
// must be an error status, not an allocation sized from lseek.
TEST(PagedDatasetTest, DirectoryInPlaceOfAFileIsDataLoss) {
  const Dataset ds = AwkwardDataset();
  const std::string dir = WritePages(ds, /*page_rows=*/5, "dir_in_place");
  auto paged = PagedDataset::Open(dir);
  ASSERT_TRUE(paged.ok());
  const std::string page_path = dir + "/page_000001.rmpg";
  std::filesystem::remove(page_path);
  std::filesystem::create_directory(page_path);
  auto page = paged->ReadPage(1);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), util::StatusCode::kDataLoss);
  EXPECT_TRUE(paged->ReadPage(0).ok());

  std::filesystem::remove(dir + "/pages.meta");
  std::filesystem::create_directory(dir + "/pages.meta");
  auto reopened = PagedDataset::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), util::StatusCode::kDataLoss);
}

// A version-1 directory (FNV-1a checksums) reports its version, not a
// checksum mismatch: the meta's magic and version are parsed first.
TEST(PagedDatasetTest, OldFormatVersionIsReportedAsSuch) {
  std::string meta("RMPD", 4);
  auto put = [&meta](auto value) {
    meta.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(uint32_t{1});  // format version
  put(uint64_t{5});  // page_rows
  put(uint64_t{1});  // num_pages
  put(uint64_t{5});  // total_rows
  put(uint32_t{1});  // num_columns
  put(uint8_t{0});   // numeric
  put(uint32_t{1});  // name length
  meta += "x";
  put(uint32_t{0});  // no categories
  uint64_t fnv1a = 14695981039346656037ULL;  // how version 1 signed it
  for (const char c : meta) {
    fnv1a = (fnv1a ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  put(fnv1a);
  const std::string dir = ::testing::TempDir() + "/paged_v1";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  WriteBytes(dir + "/pages.meta", meta);

  auto paged = PagedDataset::Open(dir);
  ASSERT_FALSE(paged.ok());
  EXPECT_EQ(paged.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(paged.status().message().find("unsupported page format version 1"),
            std::string::npos)
      << paged.status().ToString();
}

// Exhaustive corruption of one page file and of the meta: every
// single-bit flip, every shorter length, and one byte too many. Each is an
// error status — DataLoss, or InvalidArgument for a flip in the meta's
// version field (a page whose version disagrees with its meta is
// DataLoss) — and never an abort or an OK read.
TEST(PagedDatasetTest, EveryBitFlipAndTruncationIsAnErrorStatus) {
  const Dataset ds = AwkwardDataset();
  const std::string dir = WritePages(ds, /*page_rows=*/5, "sweep");
  auto paged = PagedDataset::Open(dir);
  ASSERT_TRUE(paged.ok());
  const std::string page_path = dir + "/page_000001.rmpg";
  const std::string meta_path = dir + "/pages.meta";

  // Writes each corruption of `path` and checks what `read` returns.
  auto sweep = [](const std::string& path, bool is_meta, auto read) {
    const std::string original = ReadBytes(path);
    ASSERT_GT(original.size(), 8u);
    auto expect = [&](const std::string& bytes, util::StatusCode code,
                      const std::string& what) {
      WriteBytes(path, bytes);
      const util::Status status = read();
      EXPECT_EQ(status.code(), code) << path << ", " << what << ": "
                                     << status.ToString();
    };
    for (size_t bit = 0; bit < original.size() * 8; ++bit) {
      std::string bytes = original;
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
      const bool in_version = bit / 8 >= 4 && bit / 8 < 8;
      expect(bytes,
             is_meta && in_version ? util::StatusCode::kInvalidArgument
                                   : util::StatusCode::kDataLoss,
             "bit " + std::to_string(bit) + " flipped");
    }
    for (size_t size = 0; size < original.size(); ++size) {
      expect(original.substr(0, size), util::StatusCode::kDataLoss,
             "truncated to " + std::to_string(size) + " bytes");
    }
    expect(original + '\0', util::StatusCode::kDataLoss, "one byte appended");
    WriteBytes(path, original);
    EXPECT_TRUE(read().ok()) << path << " restored";
  };
  sweep(page_path, /*is_meta=*/false,
        [&] { return paged->ReadPage(1).status(); });
  sweep(meta_path, /*is_meta=*/true,
        [&] { return PagedDataset::Open(dir).status(); });
}

uint64_t PageFileBytesIn(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".rmpg") total += entry.file_size();
  }
  return total;
}

#if ROADMINE_TRACE_ENABLED
size_t SpansNamed(const std::string& name) {
  size_t count = 0;
  for (const obs::SpanRecord& span : obs::TraceCollector::Global().Snapshot()) {
    count += span.name == name ? 1 : 0;
  }
  return count;
}
#endif

// Writing and reading a directory are observable: one span per page
// written or read, one per wait on a prefetch, and byte counters that
// advance by the page files' sizes.
TEST(PagedDatasetTest, PageIoRecordsSpansAndCountsBytes) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter& written = metrics.GetCounter("data.page.bytes_written");
  obs::Counter& read = metrics.GetCounter("data.page.bytes_read");
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  collector.Clear();
  collector.Enable();

  const uint64_t written_before = written.value();
  const Dataset ds = AwkwardDataset();
  const std::string dir = WritePages(ds, /*page_rows=*/5, "observed");
  const uint64_t page_bytes = PageFileBytesIn(dir);
  EXPECT_EQ(written.value() - written_before, page_bytes);

  auto paged = PagedDataset::Open(dir);
  ASSERT_TRUE(paged.ok());
  const uint64_t read_before = read.value();
  exec::ThreadPool pool(2);
  PagedDataset::PageStream stream = paged->Pages(&pool);
  for (;;) {
    auto chunk = stream.Next();
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (*chunk == nullptr) break;
  }
  collector.Disable();
  EXPECT_EQ(read.value() - read_before, page_bytes);
#if ROADMINE_TRACE_ENABLED
  EXPECT_EQ(SpansNamed("data.page.write"), paged->num_pages());
  EXPECT_EQ(SpansNamed("data.page.read"), paged->num_pages());
  // The first page is read in place; every later one was prefetched.
  EXPECT_EQ(SpansNamed("data.page.prefetch_wait"), paged->num_pages() - 1);
#endif
  collector.Clear();
}

}  // namespace
}  // namespace roadmine::data
