#include "data/paged_dataset.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

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
//              u64 fnv1a(everything before)
// page file:   "RMPG" u32 version  u64 page_index  u64 num_rows
//              u32 num_columns
//              per column: u8 type  payload (num_rows doubles | int32s)
//              u64 fnv1a(everything before)
constexpr char kMetaMagic[4] = {'R', 'M', 'P', 'D'};
constexpr char kPageMagic[4] = {'R', 'M', 'P', 'G'};
constexpr uint32_t kFormatVersion = 1;
constexpr char kMetaFileName[] = "pages.meta";

uint64_t Fnv1a(const char* data, size_t size) {
  uint64_t hash = 14695981039346656037ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
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

Result<std::string> LoadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return util::NotFoundError("cannot open '" + path + "'");
  const std::streamsize size = file.tellg();
  file.seekg(0);
  std::string bytes(static_cast<size_t>(size), '\0');
  if (size > 0) file.read(bytes.data(), size);
  if (!file.good()) return DataLossError("read failed for '" + path + "'");
  return bytes;
}

// Splits off and verifies the trailing checksum; returns the payload
// size (bytes covered by the checksum).
Result<size_t> VerifyChecksum(const std::string& bytes,
                              const std::string& path) {
  if (bytes.size() < 8) {
    return DataLossError("truncated page-format file '" + path + "'");
  }
  const size_t payload = bytes.size() - 8;
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + payload, 8);
  if (Fnv1a(bytes.data(), payload) != stored) {
    return DataLossError("checksum mismatch in '" + path + "'");
  }
  return payload;
}

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
  std::string bytes;
  AppendRaw(bytes, kPageMagic, 4);
  AppendU32(bytes, kFormatVersion);
  AppendU64(bytes, pages_written_);
  AppendU64(bytes, buffered_rows_);
  AppendU32(bytes, static_cast<uint32_t>(schema_.num_columns()));
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    const bool is_numeric = schema_.columns[c].type == ColumnType::kNumeric;
    AppendU8(bytes, is_numeric ? 0 : 1);
    if (is_numeric) {
      AppendRaw(bytes, numeric_[c].data(), numeric_[c].size() * sizeof(double));
    } else {
      AppendRaw(bytes, codes_[c].data(), codes_[c].size() * sizeof(int32_t));
    }
  }
  AppendU64(bytes, Fnv1a(bytes.data(), bytes.size()));
  const std::string path =
      JoinPath(directory_, PageFileName(pages_written_));
  ROADMINE_RETURN_IF_ERROR(WriteFileAtomic(path, bytes));
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
    AppendU8(bytes, spec.type == ColumnType::kNumeric ? 0 : 1);
    AppendString(bytes, spec.name);
    AppendU32(bytes, static_cast<uint32_t>(spec.categories.size()));
    for (const std::string& category : spec.categories) {
      AppendString(bytes, category);
    }
  }
  AppendU64(bytes, Fnv1a(bytes.data(), bytes.size()));
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
  auto payload = VerifyChecksum(*bytes, meta_path);
  if (!payload.ok()) return payload.status();

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
  if (index >= num_pages_) {
    return InvalidArgumentError("page index " + std::to_string(index) +
                                " out of range (dataset has " +
                                std::to_string(num_pages_) + " pages)");
  }
  const std::string path = JoinPath(directory_, PageFileName(index));
  auto bytes = LoadFile(path);
  if (!bytes.ok()) return bytes.status();
  auto payload = VerifyChecksum(*bytes, path);
  if (!payload.ok()) return payload.status();

  ByteReader reader{*bytes};
  char magic[4];
  uint32_t version = 0;
  uint64_t page_index = 0, num_rows = 0;
  uint32_t num_columns = 0;
  if (!reader.Read(magic, 4) || !reader.ReadU32(&version) ||
      !reader.ReadU64(&page_index) || !reader.ReadU64(&num_rows) ||
      !reader.ReadU32(&num_columns)) {
    return DataLossError("truncated page file '" + path + "'");
  }
  if (std::memcmp(magic, kPageMagic, 4) != 0) {
    return DataLossError("bad page magic in '" + path + "'");
  }
  if (version != kFormatVersion) {
    return InvalidArgumentError("unsupported page format version " +
                                std::to_string(version) + " in '" + path +
                                "'");
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
  if (num_rows != RowsInPage(index)) {
    return DataLossError("page file '" + path + "' has " +
                         std::to_string(num_rows) + " rows, meta expects " +
                         std::to_string(RowsInPage(index)));
  }
  Dataset page;
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    const ColumnSpec& spec = schema_.columns[c];
    uint8_t type = 0;
    if (!reader.ReadU8(&type)) {
      return DataLossError("truncated page file '" + path + "'");
    }
    const uint8_t expected =
        spec.type == ColumnType::kNumeric ? 0 : 1;
    if (type != expected) {
      return DataLossError("page file '" + path + "' column '" + spec.name +
                           "' type disagrees with meta");
    }
    const size_t value_bytes =
        spec.type == ColumnType::kNumeric ? sizeof(double) : sizeof(int32_t);
    if (num_rows > reader.Remaining() / value_bytes) {
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
  if (reader.pos != *payload) {
    return DataLossError("trailing bytes in page file '" + path + "'");
  }
  return page;
}

// ---------------------------------------------------------------------------
// PageStream

PagedDataset::PageStream::~PageStream() { DrainPrefetch(); }

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
    return static_cast<const Dataset*>(nullptr);
  }
  if (prefetch_ != nullptr && prefetch_->index == next_index_) {
    util::Status status = prefetch_->latch.Wait();
    if (!status.ok()) {
      prefetch_.reset();
      return status;
    }
    current_ = std::move(prefetch_->page);
    prefetch_.reset();
  } else {
    DrainPrefetch();
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
