#include "data/paged_dataset.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/checksum.h"

namespace roadmine::data {

using util::DataLossError;
using util::InvalidArgumentError;
using util::Result;
using util::Status;

namespace {

// File layout (all integers little-endian-as-stored, i.e. raw host
// bytes on the machines this targets; doubles/int32 payloads are raw
// memcpy — the format is binary only, never formatted text):
//
// pages.meta:  "RMPD" u32 version  u64 page_rows  u64 num_pages
//              u64 total_rows  u32 num_columns
//              per column: u8 type  str name  u32 k  k * str category
//              u64 checksum(everything before)
// page file:   "RMPG" u32 version  u64 page_index  u64 num_rows
//              u32 num_columns                        (28-byte header)
//              per column: u8 type  payload (num_rows doubles | int32s)
//              u64 checksum(everything before)
// The checksum is util::Checksum (util/checksum.h). A page file's size
// follows from the meta alone (PageFileBytes), so the reader checks it
// before allocating and then reads each payload straight into its column.
constexpr char kMetaMagic[4] = {'R', 'M', 'P', 'D'};
constexpr char kPageMagic[4] = {'R', 'M', 'P', 'G'};
constexpr uint32_t kFormatVersion = 2;
constexpr char kMetaFileName[] = "pages.meta";
constexpr uint64_t kPageHeaderBytes = 28;
constexpr uint64_t kDigestBytes = 8;
// Large payloads are read and hashed in pieces this size, so the
// checksum reads each piece from cache right after it lands.
constexpr uint64_t kReadPieceBytes = uint64_t{256} << 10;

uint8_t TypeTag(ColumnType type) { return type == ColumnType::kNumeric ? 0 : 1; }

uint64_t ValueBytes(ColumnType type) {
  return type == ColumnType::kNumeric ? sizeof(double) : sizeof(int32_t);
}

// Exact size of a page file holding `rows` rows of `schema`: the header,
// per column a type tag plus the values, and the digest. nullopt when it
// does not fit in 64 bits, which only a forged meta can claim.
std::optional<uint64_t> PageFileBytes(const TableSchema& schema,
                                      uint64_t rows) {
  uint64_t total = kPageHeaderBytes + kDigestBytes;
  for (const ColumnSpec& spec : schema.columns) {
    const uint64_t room = std::numeric_limits<uint64_t>::max() - total;
    if (room == 0 || rows > (room - 1) / ValueBytes(spec.type)) {
      return std::nullopt;
    }
    total += 1 + rows * ValueBytes(spec.type);
  }
  return total;
}

uint64_t DigestOf(const std::string& bytes, size_t size) {
  util::Checksum checksum;
  checksum.Update(bytes.data(), size);
  return checksum.Digest();
}

void AppendRaw(std::string& out, const void* data, size_t size) {
  out.append(static_cast<const char*>(data), size);
}

void AppendU8(std::string& out, uint8_t v) { AppendRaw(out, &v, 1); }
void AppendU32(std::string& out, uint32_t v) { AppendRaw(out, &v, 4); }
void AppendU64(std::string& out, uint64_t v) { AppendRaw(out, &v, 8); }

void AppendString(std::string& out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  AppendRaw(out, s.data(), s.size());
}

// Bounds-checked forward reader over a loaded file image.
struct ByteReader {
  const std::string& buffer;
  size_t pos = 0;

  bool Read(void* out, size_t size) {
    if (pos + size > buffer.size()) return false;
    std::memcpy(out, buffer.data() + pos, size);
    pos += size;
    return true;
  }
  size_t Remaining() const { return buffer.size() - pos; }
  bool ReadU8(uint8_t* v) { return Read(v, 1); }
  bool ReadU32(uint32_t* v) { return Read(v, 4); }
  bool ReadU64(uint64_t* v) { return Read(v, 8); }
  bool ReadString(std::string* s) {
    uint32_t size = 0;
    if (!ReadU32(&size)) return false;
    if (pos + size > buffer.size()) return false;
    s->assign(buffer.data() + pos, size);
    pos += size;
    return true;
  }
};

std::string PageFileName(size_t index) {
  std::string digits = std::to_string(index);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  return "page_" + digits + ".rmpg";
}

std::string JoinPath(const std::string& directory, const std::string& name) {
  return (std::filesystem::path(directory) / name).string();
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return util::InternalError("cannot write '" + path + "'");
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  file.flush();
  if (!file.good()) return DataLossError("write failed for '" + path + "'");
  return Status::Ok();
}

// Opens `path` for reading once it is known to be a regular file, and
// sets `size` to its length. A directory or device in a file's place has
// no size to trust: sizing a buffer from one is a std::bad_alloc.
Result<std::ifstream> OpenRegularFile(const std::string& path,
                                      uint64_t* size) {
  std::error_code ec;
  const std::filesystem::file_status status = std::filesystem::status(path, ec);
  if (ec) {
    return util::NotFoundError("cannot open '" + path + "': " + ec.message());
  }
  if (!std::filesystem::is_regular_file(status)) {
    return DataLossError("'" + path + "' is not a regular file");
  }
  *size = std::filesystem::file_size(path, ec);
  if (ec) {
    return DataLossError("cannot size '" + path + "': " + ec.message());
  }
  std::ifstream file(path, std::ios::binary);
  if (!file) return util::NotFoundError("cannot open '" + path + "'");
  return file;
}

Result<std::string> LoadFile(const std::string& path) {
  uint64_t size = 0;
  auto file = OpenRegularFile(path, &size);
  if (!file.ok()) return file.status();
  std::string bytes(static_cast<size_t>(size), '\0');
  if (!file->read(bytes.data(), static_cast<std::streamsize>(size))) {
    return DataLossError("read failed for '" + path + "'");
  }
  return bytes;
}

// Verifies the trailing checksum of a loaded file and drops it, leaving
// the bytes it covers.
Status StripChecksum(std::string& bytes, const std::string& path) {
  if (bytes.size() < kDigestBytes) {
    return DataLossError("truncated page-format file '" + path + "'");
  }
  const size_t payload = bytes.size() - kDigestBytes;
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + payload, kDigestBytes);
  if (DigestOf(bytes, payload) != stored) {
    return DataLossError("checksum mismatch in '" + path + "'");
  }
  bytes.resize(payload);
  return Status::Ok();
}

// One pass over a page file whose size is already known to be right:
// every byte lands in its final buffer and goes through the checksum
// while it is still in cache. Remaining() counts the bytes left before
// the trailing digest.
class PageFileReader {
 public:
  PageFileReader(std::ifstream file, uint64_t size)
      : file_(std::move(file)), remaining_(size - kDigestBytes) {}

  uint64_t Remaining() const { return remaining_; }

  // Reads `size` bytes into `out`; false if fewer are left.
  bool Read(void* out, uint64_t size) {
    if (size > remaining_) return false;
    remaining_ -= size;
    char* dst = static_cast<char*>(out);
    while (size > 0) {
      const uint64_t piece = std::min(size, kReadPieceBytes);
      if (!file_.read(dst, static_cast<std::streamsize>(piece))) return false;
      checksum_.Update(dst, piece);
      dst += piece;
      size -= piece;
    }
    return true;
  }

  // Reads the stored digest that ends the file and compares it with the
  // checksum of every byte before it.
  bool DigestMatches() {
    uint64_t stored = 0;
    return remaining_ == 0 &&
           file_.read(reinterpret_cast<char*>(&stored), kDigestBytes) &&
           stored == checksum_.Digest();
  }

 private:
  std::ifstream file_;
  uint64_t remaining_;
  util::Checksum checksum_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Writer

Result<std::unique_ptr<PagedDatasetWriter>> PagedDatasetWriter::Create(
    const std::string& directory, TableSchema schema,
    PagedDatasetOptions options) {
  if (options.page_rows == 0) {
    return InvalidArgumentError("page_rows must be positive");
  }
  if (schema.columns.empty()) {
    return InvalidArgumentError("paged dataset needs at least one column");
  }
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return util::InternalError("cannot create page directory '" + directory +
                               "': " + ec.message());
  }
  std::unique_ptr<PagedDatasetWriter> writer(new PagedDatasetWriter());
  writer->directory_ = directory;
  writer->schema_ = std::move(schema);
  writer->options_ = options;
  writer->numeric_.resize(writer->schema_.num_columns());
  writer->codes_.resize(writer->schema_.num_columns());
  return writer;
}

Status PagedDatasetWriter::FlushPage() {
  ROADMINE_TRACE_SPAN("data.page.write");
  std::string bytes;
  bytes.reserve(PageFileBytes(schema_, buffered_rows_).value_or(0));
  AppendRaw(bytes, kPageMagic, 4);
  AppendU32(bytes, kFormatVersion);
  AppendU64(bytes, pages_written_);
  AppendU64(bytes, buffered_rows_);
  AppendU32(bytes, static_cast<uint32_t>(schema_.num_columns()));
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    const ColumnType type = schema_.columns[c].type;
    AppendU8(bytes, TypeTag(type));
    if (type == ColumnType::kNumeric) {
      AppendRaw(bytes, numeric_[c].data(), numeric_[c].size() * sizeof(double));
    } else {
      AppendRaw(bytes, codes_[c].data(), codes_[c].size() * sizeof(int32_t));
    }
  }
  AppendU64(bytes, DigestOf(bytes, bytes.size()));
  const std::string path =
      JoinPath(directory_, PageFileName(pages_written_));
  ROADMINE_RETURN_IF_ERROR(WriteFileAtomic(path, bytes));
  obs::MetricsRegistry::Global()
      .GetCounter("data.page.bytes_written")
      .Increment(bytes.size());
  ++pages_written_;
  buffered_rows_ = 0;
  for (auto& v : numeric_) v.clear();
  for (auto& v : codes_) v.clear();
  return Status::Ok();
}

Status PagedDatasetWriter::Append(const Dataset& chunk) {
  if (finished_) {
    return util::FailedPreconditionError("Append after Finish");
  }
  ROADMINE_RETURN_IF_ERROR(schema_.Matches(chunk));
  const size_t rows = chunk.num_rows();
  size_t offset = 0;
  while (offset < rows) {
    const size_t take =
        std::min(options_.page_rows - buffered_rows_, rows - offset);
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      const Column& col = chunk.column(c);
      if (col.type() == ColumnType::kNumeric) {
        const auto& values = col.numeric_values();
        numeric_[c].insert(numeric_[c].end(), values.begin() + offset,
                           values.begin() + offset + take);
      } else {
        const auto& values = col.codes();
        codes_[c].insert(codes_[c].end(), values.begin() + offset,
                         values.begin() + offset + take);
      }
    }
    buffered_rows_ += take;
    total_rows_ += take;
    offset += take;
    if (buffered_rows_ == options_.page_rows) {
      ROADMINE_RETURN_IF_ERROR(FlushPage());
    }
  }
  return Status::Ok();
}

Status PagedDatasetWriter::Finish() {
  if (finished_) {
    return util::FailedPreconditionError("Finish called twice");
  }
  if (buffered_rows_ > 0) {
    ROADMINE_RETURN_IF_ERROR(FlushPage());
  }
  std::string bytes;
  AppendRaw(bytes, kMetaMagic, 4);
  AppendU32(bytes, kFormatVersion);
  AppendU64(bytes, options_.page_rows);
  AppendU64(bytes, pages_written_);
  AppendU64(bytes, total_rows_);
  AppendU32(bytes, static_cast<uint32_t>(schema_.num_columns()));
  for (const ColumnSpec& spec : schema_.columns) {
    AppendU8(bytes, TypeTag(spec.type));
    AppendString(bytes, spec.name);
    AppendU32(bytes, static_cast<uint32_t>(spec.categories.size()));
    for (const std::string& category : spec.categories) {
      AppendString(bytes, category);
    }
  }
  AppendU64(bytes, DigestOf(bytes, bytes.size()));
  ROADMINE_RETURN_IF_ERROR(
      WriteFileAtomic(JoinPath(directory_, kMetaFileName), bytes));
  finished_ = true;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Reader

Result<PagedDataset> PagedDataset::Open(const std::string& directory) {
  const std::string meta_path = JoinPath(directory, kMetaFileName);
  auto bytes = LoadFile(meta_path);
  if (!bytes.ok()) return bytes.status();

  // Magic and version come before the checksum, so a directory written
  // in another format version says so instead of failing its checksum.
  ByteReader reader{*bytes};
  char magic[4];
  uint32_t version = 0;
  if (!reader.Read(magic, 4) || !reader.ReadU32(&version)) {
    return DataLossError("truncated page-format file '" + meta_path + "'");
  }
  if (std::memcmp(magic, kMetaMagic, 4) != 0) {
    return DataLossError("bad meta magic in '" + meta_path + "'");
  }
  if (version != kFormatVersion) {
    return InvalidArgumentError("unsupported page format version " +
                                std::to_string(version) + " in '" +
                                meta_path + "'");
  }
  ROADMINE_RETURN_IF_ERROR(StripChecksum(*bytes, meta_path));

  PagedDataset dataset;
  dataset.directory_ = directory;
  uint64_t page_rows = 0, num_pages = 0, total_rows = 0;
  uint32_t num_columns = 0;
  if (!reader.ReadU64(&page_rows) || !reader.ReadU64(&num_pages) ||
      !reader.ReadU64(&total_rows) || !reader.ReadU32(&num_columns)) {
    return DataLossError("truncated page-format file '" + meta_path + "'");
  }
  if (page_rows == 0) {
    return DataLossError("zero page_rows in '" + meta_path + "'");
  }
  dataset.page_rows_ = static_cast<size_t>(page_rows);
  dataset.num_pages_ = static_cast<size_t>(num_pages);
  dataset.total_rows_ = total_rows;
  for (uint32_t c = 0; c < num_columns; ++c) {
    ColumnSpec spec;
    uint8_t type = 0;
    uint32_t num_categories = 0;
    if (!reader.ReadU8(&type) || !reader.ReadString(&spec.name) ||
        !reader.ReadU32(&num_categories)) {
      return DataLossError("truncated page-format file '" + meta_path + "'");
    }
    if (type > 1) {
      return DataLossError("unknown column type " + std::to_string(type) +
                           " in '" + meta_path + "'");
    }
    spec.type = type == 0 ? ColumnType::kNumeric : ColumnType::kCategorical;
    // Every category costs at least its 4-byte length: a count the file
    // cannot hold is corruption, not an allocation to attempt.
    if (num_categories > reader.Remaining() / 4) {
      return DataLossError("category count exceeds the file in '" +
                           meta_path + "'");
    }
    spec.categories.resize(num_categories);
    for (uint32_t k = 0; k < num_categories; ++k) {
      if (!reader.ReadString(&spec.categories[k])) {
        return DataLossError("truncated page-format file '" + meta_path + "'");
      }
    }
    dataset.schema_.columns.push_back(std::move(spec));
  }
  if (reader.Remaining() != 0) {
    return DataLossError("trailing bytes in '" + meta_path + "'");
  }
  // Sanity: the page/row accounting must be consistent.
  const uint64_t expected_pages =
      total_rows / page_rows + (total_rows % page_rows != 0 ? 1 : 0);
  if (expected_pages != num_pages) {
    return DataLossError("page count disagrees with row count in '" +
                         meta_path + "'");
  }
  return dataset;
}

size_t PagedDataset::RowsInPage(size_t index) const {
  const uint64_t begin = static_cast<uint64_t>(index) * page_rows_;
  const uint64_t remaining = total_rows_ - begin;
  return static_cast<size_t>(
      std::min<uint64_t>(page_rows_, remaining));
}

Result<Dataset> PagedDataset::ReadPage(size_t index) const {
  ROADMINE_TRACE_SPAN("data.page.read");
  if (index >= num_pages_) {
    return InvalidArgumentError("page index " + std::to_string(index) +
                                " out of range (dataset has " +
                                std::to_string(num_pages_) + " pages)");
  }
  const std::string path = JoinPath(directory_, PageFileName(index));
  const uint64_t rows = RowsInPage(index);
  const std::optional<uint64_t> expected_size = PageFileBytes(schema_, rows);
  if (!expected_size.has_value()) {
    return DataLossError("meta implies a page of more than 2^64 bytes for '" +
                         path + "'");
  }
  uint64_t size = 0;
  auto file = OpenRegularFile(path, &size);
  if (!file.ok()) return file.status();
  if (size != *expected_size) {
    return DataLossError("page file '" + path + "' has " +
                         std::to_string(size) + " bytes, meta implies " +
                         std::to_string(*expected_size));
  }
  PageFileReader reader(std::move(*file), size);

  char magic[4];
  uint32_t version = 0;
  uint64_t page_index = 0, num_rows = 0;
  uint32_t num_columns = 0;
  if (!reader.Read(magic, 4) || !reader.Read(&version, 4) ||
      !reader.Read(&page_index, 8) || !reader.Read(&num_rows, 8) ||
      !reader.Read(&num_columns, 4)) {
    return DataLossError("truncated page file '" + path + "'");
  }
  if (std::memcmp(magic, kPageMagic, 4) != 0) {
    return DataLossError("bad page magic in '" + path + "'");
  }
  if (version != kFormatVersion) {
    return DataLossError("page file '" + path + "' has format version " +
                         std::to_string(version) + ", its meta " +
                         std::to_string(kFormatVersion));
  }
  if (page_index != index) {
    return DataLossError("page file '" + path + "' claims index " +
                         std::to_string(page_index));
  }
  if (num_columns != schema_.num_columns()) {
    return DataLossError("page file '" + path + "' has " +
                         std::to_string(num_columns) + " columns, meta has " +
                         std::to_string(schema_.num_columns()));
  }
  if (num_rows != rows) {
    return DataLossError("page file '" + path + "' has " +
                         std::to_string(num_rows) + " rows, meta expects " +
                         std::to_string(rows));
  }
  Dataset page;
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    const ColumnSpec& spec = schema_.columns[c];
    uint8_t type = 0;
    if (!reader.Read(&type, 1)) {
      return DataLossError("truncated page file '" + path + "'");
    }
    if (type != TypeTag(spec.type)) {
      return DataLossError("page file '" + path + "' column '" + spec.name +
                           "' type disagrees with meta");
    }
    if (num_rows > reader.Remaining() / ValueBytes(spec.type)) {
      return DataLossError("truncated page file '" + path + "'");
    }
    if (spec.type == ColumnType::kNumeric) {
      std::vector<double> values(static_cast<size_t>(num_rows));
      if (!reader.Read(values.data(), values.size() * sizeof(double))) {
        return DataLossError("truncated page file '" + path + "'");
      }
      ROADMINE_RETURN_IF_ERROR(
          page.AddColumn(Column::Numeric(spec.name, std::move(values))));
    } else {
      std::vector<int32_t> codes(static_cast<size_t>(num_rows));
      if (!reader.Read(codes.data(), codes.size() * sizeof(int32_t))) {
        return DataLossError("truncated page file '" + path + "'");
      }
      auto col = Column::Categorical(spec.name, std::move(codes),
                                     spec.categories);
      if (!col.ok()) {
        return DataLossError("page file '" + path + "' column '" + spec.name +
                             "': " + col.status().message());
      }
      ROADMINE_RETURN_IF_ERROR(page.AddColumn(std::move(*col)));
    }
  }
  if (reader.Remaining() != 0) {
    return DataLossError("trailing bytes in page file '" + path + "'");
  }
  if (!reader.DigestMatches()) {
    return DataLossError("checksum mismatch in '" + path + "'");
  }
  obs::MetricsRegistry::Global().GetCounter("data.page.bytes_read").Increment(
      size);
  return page;
}

// ---------------------------------------------------------------------------
// PageStream

PagedDataset::PageStream::~PageStream() {
  DrainPrefetch();
  current_ = Dataset();
#if defined(__GLIBC__)
  // glibc keeps freed blocks below its dynamic mmap threshold in the
  // heap (pages too, once one page has been freed), and freed heap
  // memory stays resident: without a trim, a finished scan's pages and
  // its consumer's buffers stay in the process's resident set.
  malloc_trim(0);
#endif
}

void PagedDataset::PageStream::DrainPrefetch() {
  if (prefetch_ != nullptr) {
    // Rendezvous with the worker before dropping the slot: the posted
    // task must never outlive this stream's view of the dataset.
    (void)prefetch_->latch.Wait();
    prefetch_.reset();
  }
}

void PagedDataset::PageStream::Launch(size_t index) {
  prefetch_ = std::make_shared<Prefetch>();
  prefetch_->index = index;
  std::shared_ptr<Prefetch> slot = prefetch_;
  const PagedDataset* owner = dataset_;
  executor_->Post([slot, owner] {
    auto page = owner->ReadPage(slot->index);
    if (page.ok()) {
      slot->page = std::move(*page);
      slot->latch.Signal(util::Status::Ok());
    } else {
      slot->latch.Signal(page.status());
    }
  });
}

util::Status PagedDataset::PageStream::Reset() {
  DrainPrefetch();
  next_index_ = 0;
  return util::Status::Ok();
}

util::Result<const Dataset*> PagedDataset::PageStream::Next() {
  if (next_index_ >= dataset_->num_pages()) {
    DrainPrefetch();
    current_ = Dataset();
    return static_cast<const Dataset*>(nullptr);
  }
  if (prefetch_ != nullptr && prefetch_->index == next_index_) {
    util::Status status;
    {
      ROADMINE_TRACE_SPAN("data.page.prefetch_wait");
      status = prefetch_->latch.Wait();
    }
    if (!status.ok()) {
      prefetch_.reset();
      return status;
    }
    current_ = std::move(prefetch_->page);
    prefetch_.reset();
  } else {
    DrainPrefetch();
    // The caller's previous page is void from this call on: drop it
    // before reading, so a serial stream holds one page.
    current_ = Dataset();
    auto page = dataset_->ReadPage(next_index_);
    if (!page.ok()) return page.status();
    current_ = std::move(*page);
  }
  ++next_index_;
  if (executor_ != nullptr && next_index_ < dataset_->num_pages()) {
    Launch(next_index_);
  }
  return const_cast<const Dataset*>(&current_);
}

}  // namespace roadmine::data
