// The one ranking order behind every top-K list in roadmine, and the
// bounded buffer that keeps such a list while a stream goes by.
//
// Order: a higher key ranks first; NaN ranks after every number (a NaN
// key is data::Column's missing value). Equal keys — 0.0 and -0.0 among
// them, and any two NaNs — rank by row, lower first. Rows are unique
// within a stream, so this is a total order over every double, and a
// top-K list depends only on the stream's contents — never on its
// chunking or on the thread count that produced the keys.
// ScoringService::ScorePaged keeps its top k with TopK, and the
// works-program engine (core::BuildWorksProgramPaged) its program lines
// and both top-decile sets.
#ifndef ROADMINE_UTIL_TOP_K_H_
#define ROADMINE_UTIL_TOP_K_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
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

// The best `capacity` entries offered so far. Entrants are appended to a
// buffer of at most capacity + max(1, capacity / 4) entries (saturating,
// so any capacity up to SIZE_MAX is valid); when it fills, one
// std::nth_element cuts it back to the best `capacity`, and the worst of
// those becomes the cut that Admits() tests against. Storage grows with
// the buffer; nothing is reserved from `capacity`. Between cuts the
// buffer also holds entries the next cut drops, so Admits() may accept
// an entry that does not survive.
template <typename Payload = NoPayload>
class TopK {
 public:
  struct Entry : RankKey {
    [[no_unique_address]] Payload payload;
  };

  explicit TopK(size_t capacity)
      : capacity_(capacity), limit_(BufferLimit(capacity)) {}

  // Whether an entry ranked `rank` may be among the best `capacity`.
  bool Admits(const RankKey& rank) const {
    return capacity_ > 0 && (!has_cut_ || Ahead()(rank, cut_));
  }

  // Keeps an entry Admits() accepted, cutting the buffer when it fills.
  void Insert(const RankKey& rank, Payload payload = {}) {
    entries_.push_back(Entry{rank, std::move(payload)});
    if (entries_.size() == limit_) Cut();
  }

  // Admits() then Insert() with a default payload.
  void Offer(const RankKey& rank) {
    if (Admits(rank)) Insert(rank);
  }

  // The survivors, in no particular order.
  std::vector<Entry> Survivors() && {
    if (entries_.size() > capacity_) Cut();
    return std::move(entries_);
  }

  // The survivors, best first.
  std::vector<Entry> BestFirst() && {
    if (entries_.size() > capacity_) Cut();
    std::sort(entries_.begin(), entries_.end(), Ahead());
    return std::move(entries_);
  }

 private:
  // The ranking order: whether `a` ranks ahead of `b`. A strict weak
  // order over every double, as nth_element and sort require.
  struct Ahead {
    bool operator()(const RankKey& a, const RankKey& b) const {
      if (a.key > b.key) return true;
      if (a.key < b.key) return false;
      // Equal keys, or at least one NaN.
      const bool a_nan = std::isnan(a.key);
      if (a_nan != std::isnan(b.key)) return !a_nan;
      return a.row < b.row;
    }
  };

  static size_t BufferLimit(size_t capacity) {
    const size_t slack = std::max<size_t>(1, capacity / 4);
    return capacity > std::numeric_limits<size_t>::max() - slack
               ? std::numeric_limits<size_t>::max()
               : capacity + slack;
  }

  // Keeps the best `capacity_` entries and takes the worst of them as the
  // cut. Only called with more than `capacity_` (> 0) entries buffered.
  void Cut() {
    const auto worst = entries_.begin() + (capacity_ - 1);
    std::nth_element(entries_.begin(), worst, entries_.end(), Ahead());
    entries_.erase(worst + 1, entries_.end());
    cut_ = *worst;
    has_cut_ = true;
  }

  size_t capacity_;
  size_t limit_;
  bool has_cut_ = false;
  RankKey cut_;
  std::vector<Entry> entries_;
};

}  // namespace roadmine::util

#endif  // ROADMINE_UTIL_TOP_K_H_
