// util::TopK against a full sort of the same stream. For every capacity,
// key mix and arrival order: the survivors, their best-first order and
// the payloads they carry equal the sorted stream's first k, and every
// entry Admits() turns away lies outside them.
#include "util/top_k.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace roadmine::util {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// The ranking order, restated without TopK: numbers before NaN, higher
// numbers first (0.0 and -0.0 tie), then lower rows.
std::tuple<bool, double, uint64_t> OracleKey(const RankKey& r) {
  const bool nan = std::isnan(r.key);
  return {nan, nan ? 0.0 : -r.key, r.row};
}

// The stream's best k, best first.
std::vector<RankKey> OracleTopK(std::vector<RankKey> stream, size_t k) {
  std::sort(stream.begin(), stream.end(),
            [](const RankKey& a, const RankKey& b) {
              return OracleKey(a) < OracleKey(b);
            });
  if (stream.size() > k) stream.resize(k);
  return stream;
}

// The payload each row carries through the list.
std::string Tag(uint64_t row) { return "row " + std::to_string(row); }

// Offers the stream in order, keeping what Admits() turns away.
TopK<std::string> Fill(size_t capacity, const std::vector<RankKey>& stream,
                       std::vector<RankKey>* rejected) {
  TopK<std::string> top(capacity);
  for (const RankKey& entry : stream) {
    if (top.Admits(entry)) {
      top.Insert(entry, Tag(entry.row));
    } else {
      rejected->push_back(entry);
    }
  }
  return top;
}

// Same row, same key bits (so -0.0 stays -0.0 and NaN stays NaN), and
// the row's own payload.
void ExpectSameEntry(const TopK<std::string>::Entry& got, const RankKey& want) {
  EXPECT_EQ(got.row, want.row);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.key), std::bit_cast<uint64_t>(want.key))
      << "row " << got.row;
  EXPECT_EQ(got.payload, Tag(got.row));
}

void ExpectMatchesOracle(const std::vector<RankKey>& stream, size_t capacity) {
  const std::vector<RankKey> want = OracleTopK(stream, capacity);
  std::set<uint64_t> want_rows;
  for (const RankKey& entry : want) want_rows.insert(entry.row);

  std::vector<RankKey> rejected;
  const auto best_first = Fill(capacity, stream, &rejected).BestFirst();
  ASSERT_EQ(best_first.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameEntry(best_first[i], want[i]);
  }
  for (const RankKey& entry : rejected) {
    EXPECT_EQ(want_rows.count(entry.row), 0u) << "rejected row " << entry.row;
  }
  if (capacity == 0) {
    EXPECT_EQ(rejected.size(), stream.size());
  }

  rejected.clear();
  auto survivors = Fill(capacity, stream, &rejected).Survivors();
  std::sort(survivors.begin(), survivors.end(),
            [](const RankKey& a, const RankKey& b) { return a.row < b.row; });
  std::vector<RankKey> want_by_row = want;
  std::sort(want_by_row.begin(), want_by_row.end(),
            [](const RankKey& a, const RankKey& b) { return a.row < b.row; });
  ASSERT_EQ(survivors.size(), want_by_row.size());
  for (size_t i = 0; i < want_by_row.size(); ++i) {
    ExpectSameEntry(survivors[i], want_by_row[i]);
  }
}

// Keys for `n` rows: a few distinct values with many ties, signed zeros,
// infinities and NaN; one key throughout; all NaN; and keys rising with
// the row, so every entrant beats the list so far.
std::vector<std::vector<double>> KeyMixes(size_t n) {
  const std::vector<double> pool = {kNaN, -kInf, -2.5, -0.0, 0.0,
                                    0.5,  0.5,   1.0,  kInf, kNaN};
  Rng rng(24);
  std::vector<double> ties(n), one(n, 0.5), nan(n, kNaN), rising(n);
  for (size_t i = 0; i < n; ++i) {
    ties[i] = pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    rising[i] = static_cast<double>(i);
  }
  return {ties, one, nan, rising};
}

TEST(TopKTest, MatchesAFullSortForEveryCapacityAndOrder) {
  constexpr size_t kRows = 300;
  const std::vector<std::vector<double>> mixes = KeyMixes(kRows);
  for (size_t mix = 0; mix < mixes.size(); ++mix) {
    for (const bool shuffled : {false, true}) {
      std::vector<RankKey> stream(kRows);
      for (size_t row = 0; row < kRows; ++row) {
        stream[row] = {mixes[mix][row], row};
      }
      if (shuffled) Rng(mix + 1).Shuffle(stream);
      for (const size_t capacity :
           {size_t{0}, size_t{1}, size_t{2}, size_t{7}, kRows / 3, kRows - 1,
            kRows, kRows + 1, std::numeric_limits<size_t>::max()}) {
        SCOPED_TRACE(::testing::Message() << "mix " << mix << " shuffled "
                                          << shuffled << " capacity "
                                          << capacity);
        ExpectMatchesOracle(stream, capacity);
      }
    }
  }
}

TEST(TopKTest, NanKeysRankLast) {
  // A NaN offered first or second once sat at the front of the list and
  // froze it: nothing ranked ahead of it, so {.9, .8, .7} were turned away.
  for (const size_t nan_at : {size_t{0}, size_t{1}}) {
    SCOPED_TRACE(nan_at);
    std::vector<double> keys = {0.1, 0.2, 0.9, 0.8, 0.7};
    keys.insert(keys.begin() + static_cast<std::ptrdiff_t>(nan_at), kNaN);
    TopK<> top(3);
    for (size_t row = 0; row < keys.size(); ++row) top.Offer({keys[row], row});
    const auto best = std::move(top).BestFirst();
    ASSERT_EQ(best.size(), 3u);
    EXPECT_EQ(best[0].key, 0.9);
    EXPECT_EQ(best[1].key, 0.8);
    EXPECT_EQ(best[2].key, 0.7);

    TopK<> all(keys.size());
    for (size_t row = 0; row < keys.size(); ++row) all.Offer({keys[row], row});
    const auto ranked = std::move(all).BestFirst();
    ASSERT_EQ(ranked.size(), keys.size());
    EXPECT_TRUE(std::isnan(ranked.back().key));
    EXPECT_EQ(ranked.back().row, nan_at);
  }
}

TEST(TopKTest, ZeroCapacityAdmitsNothing) {
  TopK<> none(0);
  for (const double key : {kInf, 1.0, 0.0, kNaN}) {
    EXPECT_FALSE(none.Admits({key, 0}));
  }
  EXPECT_TRUE(std::move(none).BestFirst().empty());
}

}  // namespace
}  // namespace roadmine::util
