#include "grid/cube_counter.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators/synthetic.h"

namespace hido {
namespace {

GridModel MakeGrid(size_t n, size_t d, size_t phi, uint64_t seed) {
  GridModel::Options opts;
  opts.phi = phi;
  return GridModel::Build(GenerateUniform(n, d, seed), opts);
}

std::vector<DimRange> RandomConditions(const GridModel& grid, size_t k,
                                       Rng& rng) {
  std::vector<DimRange> conditions;
  const std::vector<size_t> dims =
      rng.SampleWithoutReplacement(grid.num_dims(), k);
  for (size_t d : dims) {
    conditions.push_back({static_cast<uint32_t>(d),
                          static_cast<uint32_t>(rng.UniformIndex(grid.phi()))});
  }
  return conditions;
}

TEST(CubeCounterTest, SingleConditionMatchesPostingList) {
  const GridModel grid = MakeGrid(500, 3, 5, 1);
  CubeCounter counter(grid);
  for (uint32_t cell = 0; cell < 5; ++cell) {
    EXPECT_EQ(counter.Count({{0, cell}}), grid.RangeCardinality(0, cell));
  }
}

TEST(CubeCounterTest, AllStrategiesAgree) {
  const GridModel grid = MakeGrid(700, 6, 4, 2);
  CubeCounter counter(grid);
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t k = 1 + rng.UniformIndex(4);
    const std::vector<DimRange> conditions = RandomConditions(grid, k, rng);
    const size_t bitset =
        counter.CountUncached(conditions, CountingStrategy::kBitset);
    const size_t postings =
        counter.CountUncached(conditions, CountingStrategy::kPostingList);
    const size_t naive =
        counter.CountUncached(conditions, CountingStrategy::kNaive);
    EXPECT_EQ(bitset, postings);
    EXPECT_EQ(bitset, naive);
  }
}

TEST(CubeCounterTest, ConditionOrderDoesNotMatter) {
  const GridModel grid = MakeGrid(400, 4, 3, 5);
  CubeCounter counter(grid);
  const std::vector<DimRange> a = {{0, 1}, {2, 0}, {3, 2}};
  const std::vector<DimRange> b = {{3, 2}, {0, 1}, {2, 0}};
  EXPECT_EQ(counter.Count(a), counter.Count(b));
}

TEST(CubeCounterTest, CacheHitsOnRepeatedQueries) {
  const GridModel grid = MakeGrid(300, 4, 3, 7);
  CubeCounter counter(grid);
  const std::vector<DimRange> conditions = {{0, 0}, {1, 1}};
  const size_t first = counter.Count(conditions);
  const size_t again = counter.Count(conditions);
  EXPECT_EQ(first, again);
  EXPECT_EQ(counter.stats().queries, 2u);
  EXPECT_EQ(counter.stats().cache_hits, 1u);
  // Permuted conditions hit the same cache entry.
  counter.Count({{1, 1}, {0, 0}});
  EXPECT_EQ(counter.stats().cache_hits, 2u);
}

TEST(CubeCounterTest, CacheDisabled) {
  const GridModel grid = MakeGrid(300, 4, 3, 7);
  CubeCounter::Options opts;
  opts.cache_capacity = 0;
  CubeCounter counter(grid, opts);
  counter.Count({{0, 0}});
  counter.Count({{0, 0}});
  EXPECT_EQ(counter.stats().cache_hits, 0u);
}

TEST(CubeCounterTest, ClearCacheForgets) {
  const GridModel grid = MakeGrid(300, 4, 3, 7);
  CubeCounter counter(grid);
  counter.Count({{0, 0}});
  counter.ClearCache();
  counter.Count({{0, 0}});
  EXPECT_EQ(counter.stats().cache_hits, 0u);
  // The drop is accounted, not silent: one clear event, one entry lost.
  EXPECT_EQ(counter.stats().cache_clears, 1u);
  EXPECT_EQ(counter.stats().cache_evictions, 1u);
}

TEST(CubeCounterTest, WholesaleClearOnFullIsAccounted) {
  const GridModel grid = MakeGrid(300, 4, 3, 7);
  CubeCounter::Options opts;
  opts.cache_capacity = 2;
  CubeCounter counter(grid, opts);
  // Three distinct queries: the third finds the table full, clears the two
  // residents (counted), and caches itself.
  counter.Count({{0, 0}});
  counter.Count({{0, 1}});
  counter.Count({{0, 2}});
  EXPECT_EQ(counter.stats().cache_clears, 1u);
  EXPECT_EQ(counter.stats().cache_evictions, 2u);
  // The newest entry survived the clear; the evicted ones recompute.
  counter.Count({{0, 2}});
  EXPECT_EQ(counter.stats().cache_hits, 1u);
  counter.Count({{0, 0}});
  EXPECT_EQ(counter.stats().cache_hits, 1u);
  // Every query is still served by exactly one path.
  const CubeCounter::Stats& s = counter.stats();
  EXPECT_EQ(s.queries, s.cache_hits + s.bitset_counts +
                           s.posting_counts + s.naive_counts);
}

// The determinism contract, as a property test: for randomized grids and
// condition lists, Count is identical with the memo on, with a tiny
// thrashing memo, and with it off — and each counter's serving-path stats
// sum back to its queries.
TEST(CubeCounterPropertyTest, CountsAgreeWithAndWithoutMemo) {
  Rng rng(271);
  for (int round = 0; round < 8; ++round) {
    const size_t n = 100 + rng.UniformIndex(400);
    const size_t d = 4 + rng.UniformIndex(5);
    const size_t phi = 3 + rng.UniformIndex(4);
    const GridModel grid = MakeGrid(n, d, phi, 1000 + round);

    CubeCounter::Options tiny;
    tiny.cache_capacity = 8;
    CubeCounter::Options off;
    off.cache_capacity = 0;
    CubeCounter memo_counter(grid);
    CubeCounter tiny_counter(grid, tiny);
    CubeCounter off_counter(grid, off);

    // Draw from a small pool of condition sets so revisits exercise the
    // hit paths, not just cold misses.
    std::vector<std::vector<DimRange>> pool;
    for (int i = 0; i < 12; ++i) {
      pool.push_back(RandomConditions(grid, 1 + rng.UniformIndex(4), rng));
    }
    for (int trial = 0; trial < 120; ++trial) {
      const std::vector<DimRange>& conditions =
          pool[rng.UniformIndex(pool.size())];
      const size_t expected = off_counter.Count(conditions);
      EXPECT_EQ(memo_counter.Count(conditions), expected);
      EXPECT_EQ(tiny_counter.Count(conditions), expected);
    }

    for (const CubeCounter* counter :
         {&memo_counter, &tiny_counter, &off_counter}) {
      const CubeCounter::Stats& s = counter->stats();
      EXPECT_EQ(s.queries, s.cache_hits + s.bitset_counts +
                               s.posting_counts + s.naive_counts);
    }
    EXPECT_GT(memo_counter.stats().cache_hits, 0u);
    EXPECT_GT(tiny_counter.stats().cache_clears, 0u);
    EXPECT_EQ(off_counter.stats().cache_hits, 0u);
  }
}

TEST(PackCubeKeyTest, SortsAndPacks) {
  const CubeKey key = PackCubeKey({{3, 2}, {0, 1}, {2, 0}});
  ASSERT_EQ(key.size(), 3u);
  EXPECT_EQ(key[0], (uint64_t{0} << 32) | 1);
  EXPECT_EQ(key[1], (uint64_t{2} << 32) | 0);
  EXPECT_EQ(key[2], (uint64_t{3} << 32) | 2);
  // Order-insensitive: any permutation packs to the same key.
  EXPECT_EQ(key, PackCubeKey({{0, 1}, {2, 0}, {3, 2}}));
  EXPECT_EQ(key, PackCubeKey({{2, 0}, {3, 2}, {0, 1}}));
}

TEST(CubeCounterTest, CoveredPointsMatchCount) {
  const GridModel grid = MakeGrid(600, 5, 4, 9);
  CubeCounter counter(grid);
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<DimRange> conditions = RandomConditions(grid, 2, rng);
    const std::vector<uint32_t> covered = counter.CoveredPoints(conditions);
    EXPECT_EQ(covered.size(), counter.Count(conditions));
    for (uint32_t row : covered) {
      EXPECT_TRUE(grid.Covers(row, conditions));
    }
  }
}

TEST(CubeCounterTest, FullConjunctionOfOnePointCell) {
  // A cube conditioned on every dimension of a single point contains
  // at least that point.
  const GridModel grid = MakeGrid(100, 3, 4, 13);
  CubeCounter counter(grid);
  std::vector<DimRange> conditions;
  for (size_t d = 0; d < 3; ++d) {
    conditions.push_back({static_cast<uint32_t>(d), grid.Cell(42, d)});
  }
  EXPECT_GE(counter.Count(conditions), 1u);
  const std::vector<uint32_t> covered = counter.CoveredPoints(conditions);
  EXPECT_NE(std::find(covered.begin(), covered.end(), 42u), covered.end());
}

// Counts are identical at any container threshold: forcing every range to
// a bitmap, every range to a sorted array, or the auto mix changes only
// the representation each query intersects, never the result. Each
// counter's serving-path stats still reconcile with its query total.
TEST(CubeCounterTest, CountsAgreeAcrossContainerThresholds) {
  const Dataset data = GenerateUniform(500, 5, 21);
  GridModel::Options all_bitmaps;
  all_bitmaps.phi = 4;
  all_bitmaps.array_threshold = 0;
  GridModel::Options all_arrays;
  all_arrays.phi = 4;
  all_arrays.array_threshold = 501;  // every range is sparser than this
  GridModel::Options mixed;
  mixed.phi = 4;  // auto threshold: rows/32
  const GridModel bitmap_grid = GridModel::Build(data, all_bitmaps);
  const GridModel array_grid = GridModel::Build(data, all_arrays);
  const GridModel mixed_grid = GridModel::Build(data, mixed);

  CubeCounter bitmap_counter(bitmap_grid);
  CubeCounter array_counter(array_grid);
  CubeCounter mixed_counter(mixed_grid);
  Rng rng(23);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t k = 1 + rng.UniformIndex(4);
    const std::vector<DimRange> conditions =
        RandomConditions(bitmap_grid, k, rng);
    const size_t expected = bitmap_counter.Count(conditions);
    EXPECT_EQ(array_counter.Count(conditions), expected);
    EXPECT_EQ(mixed_counter.Count(conditions), expected);
  }
  for (const CubeCounter* counter :
       {&bitmap_counter, &array_counter, &mixed_counter}) {
    const CubeCounter::Stats& s = counter->stats();
    EXPECT_EQ(s.queries, s.cache_hits + s.bitset_counts +
                             s.posting_counts + s.naive_counts);
  }
}

// The strategy fold: when every container in the cube is an array, auto
// mode routes the query to the posting-list path (probing a handful of
// sorted ids beats streaming bitmap words).
TEST(CubeCounterTest, ChooseRoutesAllArrayCubesToPostings) {
  const Dataset data = GenerateUniform(400, 4, 25);
  GridModel::Options opts;
  opts.phi = 3;
  opts.array_threshold = 401;  // force every range to array form
  const GridModel grid = GridModel::Build(data, opts);
  CubeCounter::Options copts;
  copts.cache_capacity = 0;
  CubeCounter counter(grid, copts);
  Rng rng(27);
  for (int trial = 0; trial < 20; ++trial) {
    counter.Count(RandomConditions(grid, 2 + rng.UniformIndex(3), rng));
  }
  const CubeCounter::Stats& s = counter.stats();
  EXPECT_EQ(s.posting_counts, s.queries);
  EXPECT_EQ(s.bitset_counts, 0u);
}

// A forced bitset strategy stays correct even when the grid holds array
// containers (the bitset path materializes them on the fly).
TEST(CubeCounterTest, ForcedBitsetCorrectOnArrayContainers) {
  const Dataset data = GenerateUniform(400, 4, 29);
  GridModel::Options opts;
  opts.phi = 3;
  opts.array_threshold = 401;
  const GridModel forced = GridModel::Build(data, opts);
  opts.array_threshold = 0;
  const GridModel reference = GridModel::Build(data, opts);
  CubeCounter forced_counter(forced);
  CubeCounter reference_counter(reference);
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    const std::vector<DimRange> conditions =
        RandomConditions(forced, 1 + rng.UniformIndex(4), rng);
    EXPECT_EQ(
        forced_counter.CountUncached(conditions, CountingStrategy::kBitset),
        reference_counter.CountUncached(conditions, CountingStrategy::kBitset));
    EXPECT_EQ(
        forced_counter.CountUncached(conditions, CountingStrategy::kPostingList),
        reference_counter.CountUncached(conditions, CountingStrategy::kNaive));
  }
}

TEST(CubeCounterDeathTest, EmptyConditionsAbort) {
  const GridModel grid = MakeGrid(10, 2, 2, 15);
  CubeCounter counter(grid);
  EXPECT_DEATH(counter.Count({}), "empty");
}

// Property: counting distributes over the grid — per-dimension totals of
// 2-cubes over all cells of the second dim equal the 1-cube count.
TEST(CubeCounterTest, MarginalizationProperty) {
  const GridModel grid = MakeGrid(800, 4, 5, 17);
  CubeCounter counter(grid);
  for (uint32_t c0 = 0; c0 < 5; ++c0) {
    size_t total = 0;
    for (uint32_t c1 = 0; c1 < 5; ++c1) {
      total += counter.Count({{0, c0}, {1, c1}});
    }
    EXPECT_EQ(total, counter.Count({{0, c0}}));
  }
}

}  // namespace
}  // namespace hido
