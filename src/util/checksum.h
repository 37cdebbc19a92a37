// The one checksum of roadmine's binary files: a streaming 64-bit digest
// that runs at memory speed, so verifying a page costs about as much as
// reading it.
//
// Bytes are consumed in 32-byte blocks of four 8-byte words, each folded
// into its own lane with xxHash64's round, acc = rotl(acc + w * P2, 31) *
// P1. The four lanes are independent, so their multiply chains overlap.
// Digest() merges the lanes by rotation, adds the byte length, folds the
// tail of fewer than 32 bytes one byte at a time, and avalanches. The
// constants and the round are xxHash64's; the digests are not (the merge,
// tail and short-input handling differ), and the function is defined by
// this header and the known-answer test in tests/util_checksum_test.cc.
//
// Guarantees:
//  - The digest depends only on the byte sequence, never on how it was
//    split across Update() calls.
//  - Every round is a bijection of the lane state for a fixed word and of
//    the word for a fixed state (P1 and P2 are odd); the merge, each tail
//    step and the avalanche are bijections too. So any change confined to
//    one 8-byte word of a block, or to one byte of the tail, always
//    changes the digest. In particular every single-bit flip does.
//
// Words are read in host byte order, like every integer in the page
// format that carries this digest.
#ifndef ROADMINE_UTIL_CHECKSUM_H_
#define ROADMINE_UTIL_CHECKSUM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace roadmine::util {

class Checksum {
 public:
  // Hashes `size` more bytes of the stream.
  void Update(const void* data, size_t size) {
    if (size == 0) return;
    const unsigned char* p = static_cast<const unsigned char*>(data);
    length_ += size;
    if (buffered_ > 0) {
      const size_t take = size < kBlock - buffered_ ? size : kBlock - buffered_;
      std::memcpy(block_ + buffered_, p, take);
      buffered_ += take;
      p += take;
      size -= take;
      if (buffered_ < kBlock) return;
      Blocks(block_, 1);
      buffered_ = 0;
    }
    Blocks(p, size / kBlock);
    buffered_ = size % kBlock;
    std::memcpy(block_, p + size - buffered_, buffered_);
  }

  // The digest of every byte so far. Does not end the stream.
  uint64_t Digest() const {
    uint64_t h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
                 std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
    h += length_;
    for (size_t i = 0; i < buffered_; ++i) {
      h ^= block_[i] * kP5;
      h = std::rotl(h, 11) * kP1;
    }
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr size_t kBlock = 32;
  static constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  static constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  static constexpr uint64_t kP3 = 0x165667B19E3779F9ULL;
  static constexpr uint64_t kP5 = 0x27D4EB2F165667C5ULL;

  static uint64_t Round(uint64_t acc, const unsigned char* word) {
    uint64_t w;
    std::memcpy(&w, word, 8);
    return std::rotl(acc + w * kP2, 31) * kP1;
  }

  // Folds `count` whole blocks starting at `p`. The lanes live in locals
  // so their four chains stay in registers.
  void Blocks(const unsigned char* p, size_t count) {
    uint64_t v0 = lanes_[0], v1 = lanes_[1], v2 = lanes_[2], v3 = lanes_[3];
    for (size_t i = 0; i < count; ++i, p += kBlock) {
      v0 = Round(v0, p);
      v1 = Round(v1, p + 8);
      v2 = Round(v2, p + 16);
      v3 = Round(v3, p + 24);
    }
    lanes_[0] = v0;
    lanes_[1] = v1;
    lanes_[2] = v2;
    lanes_[3] = v3;
  }

  // xxHash64's lane seeds for seed 0.
  uint64_t lanes_[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  unsigned char block_[kBlock] = {};
  size_t buffered_ = 0;
  uint64_t length_ = 0;
};

}  // namespace roadmine::util

#endif  // ROADMINE_UTIL_CHECKSUM_H_
