// util::Checksum, the digest of every page-format file. The known answers
// pin the function itself: changing any of them changes the page format.
// The split tests pin that a digest depends only on the bytes, never on
// how a reader or writer happened to hand them over.
#include "util/checksum.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace roadmine::util {
namespace {

// Deterministic bytes: the top byte of a 64-bit LCG (Knuth's MMIX
// constants), independent of util::Rng so the pins never move with it.
std::string Pattern(size_t size) {
  std::string bytes(size, '\0');
  uint64_t x = 0x243F6A8885A308D3ULL;
  for (size_t i = 0; i < size; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    bytes[i] = static_cast<char>(x >> 56);
  }
  return bytes;
}

uint64_t Digest(const std::string& bytes) {
  Checksum checksum;
  checksum.Update(bytes.data(), bytes.size());
  return checksum.Digest();
}

// Feeds `bytes` in pieces of the given sizes, cycling through them.
uint64_t DigestInPieces(const std::string& bytes,
                        const std::vector<size_t>& pieces) {
  Checksum checksum;
  size_t pos = 0;
  for (size_t i = 0; pos < bytes.size(); ++i) {
    const size_t take = std::min(pieces[i % pieces.size()], bytes.size() - pos);
    checksum.Update(bytes.data() + pos, take);
    pos += take;
  }
  return checksum.Digest();
}

TEST(ChecksumTest, KnownAnswers) {
  struct Case {
    size_t size;
    uint64_t digest;
  };
  // Lengths around the 8-byte word and the 32-byte block, and ~1 MB with
  // a 5-byte tail.
  const Case cases[] = {
      {0, 0x9090306C6E91ED59ULL},
      {1, 0x811FAEF4E214B096ULL},
      {7, 0x481C54B03295A607ULL},
      {8, 0x3CA44DD891B6FC6AULL},
      {31, 0xEAAC3636920D03FDULL},
      {32, 0xDBAFA69FEC5A2F18ULL},
      {33, 0x88079A059E3F1CF1ULL},
      {(size_t{1} << 20) + 5, 0xF91B1026D57DE572ULL},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Digest(Pattern(c.size)), c.digest) << c.size << " bytes";
  }
}

TEST(ChecksumTest, DigestDoesNotDependOnHowBytesAreSplit) {
  // Page-shaped: a 28-byte header, then per column a 1-byte type tag and
  // its payload (300 doubles, 300 int32 codes, 300 doubles), then 8 more.
  const std::vector<size_t> page = {28, 1, 2400, 1, 1200, 1, 2400, 8};
  size_t page_size = 0;
  for (const size_t piece : page) page_size += piece;

  for (const size_t size : {size_t{0}, size_t{31}, size_t{97}, page_size}) {
    const std::string bytes = Pattern(size);
    const uint64_t whole = Digest(bytes);
    for (const std::vector<size_t>& pieces :
         std::vector<std::vector<size_t>>{{1}, {3}, {31}, {33}, {32, 5}, page}) {
      EXPECT_EQ(DigestInPieces(bytes, pieces), whole)
          << size << " bytes in pieces of " << pieces[0];
    }
  }
}

TEST(ChecksumTest, ZeroLengthUpdatesChangeNothing) {
  const std::string bytes = Pattern(45);
  Checksum checksum;
  checksum.Update(nullptr, 0);
  checksum.Update(bytes.data(), 20);
  checksum.Update(bytes.data() + 20, 0);
  checksum.Update(bytes.data() + 20, 25);
  EXPECT_EQ(checksum.Digest(), Digest(bytes));
}

// By construction (every round, merge and tail step is a bijection), any
// single-bit flip changes the digest — in a block word or in the tail.
TEST(ChecksumTest, EverySingleBitFlipChangesTheDigest) {
  const std::string original = Pattern(77);  // two blocks and a 13-byte tail
  const uint64_t digest = Digest(original);
  for (size_t bit = 0; bit < original.size() * 8; ++bit) {
    std::string bytes = original;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_NE(Digest(bytes), digest) << "bit " << bit;
  }
}

// Length is part of the digest: zero bytes appended are not invisible.
TEST(ChecksumTest, TrailingZerosChangeTheDigest) {
  std::string bytes = Pattern(64);
  const uint64_t digest = Digest(bytes);
  for (int i = 0; i < 40; ++i) {
    bytes.push_back('\0');
    EXPECT_NE(Digest(bytes), digest) << i + 1 << " zeros appended";
  }
}

}  // namespace
}  // namespace roadmine::util
