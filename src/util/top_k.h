// The one ranking order behind every top-K list in roadmine, and the
// bounded heap that keeps such a list while a stream goes by.
//
// Order: a higher key ranks first; equal keys rank by row, lower first.
// Rows are unique within a stream, so this is a total order and a top-K
// list depends only on the stream's contents — never on its chunking or
// on the thread count that produced the keys. ScoringService::ScorePaged
// keeps its top k with TopK, and the works-program engine
// (core::BuildWorksProgramPaged) its program lines and both top-decile
// sets.
#ifndef ROADMINE_UTIL_TOP_K_H_
#define ROADMINE_UTIL_TOP_K_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace roadmine::util {

// A ranked stream position: the key it is ranked by and its row.
struct RankKey {
  double key = 0.0;
  uint64_t row = 0;
};

// Payload of a TopK that keeps bare (key, row) pairs.
struct NoPayload {};

// The best `capacity` entries offered so far, as a heap with the worst
// survivor at the front, where eviction wants it. Storage grows with the
// survivors; nothing is reserved from `capacity`.
template <typename Payload = NoPayload>
class TopK {
 public:
  struct Entry : RankKey {
    [[no_unique_address]] Payload payload;
  };

  explicit TopK(size_t capacity) : capacity_(capacity) {}

  // Whether an entry ranked `rank` would be kept.
  bool Admits(const RankKey& rank) const {
    return entries_.size() < capacity_ ||
           (capacity_ > 0 && Ahead()(rank, entries_.front()));
  }

  // Keeps an entry Admits() accepted, evicting the worst when full.
  void Insert(const RankKey& rank, Payload payload = {}) {
    if (entries_.size() == capacity_) {
      std::pop_heap(entries_.begin(), entries_.end(), Ahead());
      entries_.pop_back();
    }
    entries_.push_back(Entry{rank, std::move(payload)});
    std::push_heap(entries_.begin(), entries_.end(), Ahead());
  }

  // Admits() then Insert() with a default payload.
  void Offer(const RankKey& rank) {
    if (Admits(rank)) Insert(rank);
  }

  // The survivors, in heap order.
  const std::vector<Entry>& entries() const { return entries_; }

  // The survivors, best first.
  std::vector<Entry> BestFirst() && {
    std::sort_heap(entries_.begin(), entries_.end(), Ahead());
    return std::move(entries_);
  }

 private:
  // The ranking order: whether `a` ranks ahead of `b`. As the heap's
  // "less than" it parks the worst survivor at the front.
  struct Ahead {
    bool operator()(const RankKey& a, const RankKey& b) const {
      if (a.key != b.key) return a.key > b.key;
      return a.row < b.row;
    }
  };

  size_t capacity_;
  std::vector<Entry> entries_;
};

}  // namespace roadmine::util

#endif  // ROADMINE_UTIL_TOP_K_H_
