#ifndef HIDO_GRID_CUBE_COUNTER_H_
#define HIDO_GRID_CUBE_COUNTER_H_

// Counting the points inside a k-dimensional cube — the fitness evaluation
// at the heart of both search algorithms. Three interchangeable strategies
// (bitset AND+popcount, posting-list intersection, naive row scan) plus a
// memoizing cache, since the evolutionary search re-evaluates recurring
// sub-combinations constantly.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "grid/grid_model.h"

namespace hido {

/// A cube's identity: one uint64 per condition, (dim << 32) | cell, sorted
/// ascending, so the key is insensitive to condition order.
using CubeKey = std::vector<uint64_t>;

/// FNV-1a over the packed conditions (the memo table's hash).
struct CubeKeyHash {
  size_t operator()(const CubeKey& key) const;  ///< FNV-1a over the ranges
};

/// Packs `conditions` into a sorted CubeKey.
CubeKey PackCubeKey(const std::vector<DimRange>& conditions);

/// How CubeCounter intersects range memberships.
enum class CountingStrategy {
  kAuto,         ///< pick per query from selectivity (default)
  kBitset,       ///< AND of membership bitsets, popcount
  kPostingList,  ///< k-way sorted-list intersection
  kNaive,        ///< scan every row, test all conditions
};

/// Counts points covered by conjunctions of grid conditions.
///
/// Threading contract: one CubeCounter instance serves one thread (its
/// statistics, memo table, and scratch bitset are unsynchronized mutable
/// state). Concurrent searches use one counter per worker, each with its
/// own memo.
///
/// Determinism: a cube count is a pure function of the grid and the
/// conditions, so the memo (on, or off with cache_capacity = 0) can change
/// which code path produces a count but never its value. Results are
/// bit-identical with and without it and across thread counts; only speed
/// and the serving-path statistics below move. See DESIGN.md "Cube-count
/// memo" for why there is exactly one memo policy.
/// Counts dataset points falling in grid cubes under a chosen strategy.
class CubeCounter {
 public:
  /// Strategy selection and cache sizing knobs.
  struct Options {
    CountingStrategy strategy = CountingStrategy::kAuto;  ///< counting path
    /// Maximum memoized cubes; the memo table is wholesale-cleared when
    /// full (0 disables memoization, for one-shot lookups).
    size_t cache_capacity = 1u << 18;
  };

  /// Counters for introspection and the micro benchmarks. Invariant:
  ///
  ///   queries == cache_hits + bitset_counts + posting_counts
  ///              + naive_counts
  ///
  /// — every query is served from exactly one source: the memo table, or
  /// a full computation by exactly one strategy (including queries made
  /// through CountUncached).
  ///
  /// A wholesale clear of the full memo costs `cache_evictions`
  /// recomputations in the worst case (every dropped entry that would have
  /// been re-queried); `cache_clears` counts the clear events themselves
  /// (capacity overflows plus explicit ClearCache calls), so
  /// cache_evictions / cache_clears is the average table size at clear
  /// time.
  struct Stats {
    uint64_t queries = 0;         ///< total Count() calls on any path
    uint64_t cache_hits = 0;      ///< served by the memo table
    uint64_t bitset_counts = 0;   ///< answered by bitset intersection
    uint64_t posting_counts = 0;  ///< answered by posting-list merge
    uint64_t naive_counts = 0;    ///< answered by a full point scan
    uint64_t cache_evictions = 0;  ///< memo entries dropped by clears
    uint64_t cache_clears = 0;     ///< memo wholesale-clear events

    /// Element-wise accumulation (for merging per-thread counters).
    Stats& operator+=(const Stats& other);
  };

  /// `grid` must outlive the counter. Default options: kAuto + caching.
  explicit CubeCounter(const GridModel& grid);
  /// Same, with explicit strategy/cache options.
  CubeCounter(const GridModel& grid, const Options& options);

  /// Number of points satisfying all `conditions`.
  /// Preconditions: conditions non-empty, dims pairwise distinct, every
  /// cell < phi.
  size_t Count(const std::vector<DimRange>& conditions);

  /// As Count, bypassing the cache (used by the cache's own tests).
  size_t CountUncached(const std::vector<DimRange>& conditions,
                       CountingStrategy strategy);

  /// Sorted ids of the points satisfying all `conditions` (uncached).
  std::vector<uint32_t> CoveredPoints(
      const std::vector<DimRange>& conditions) const;

  const Stats& stats() const { return stats_; }  ///< query/path totals

  /// Folds another counter's statistics into this one. Used to aggregate
  /// the private per-thread counters of a parallel search into the caller's
  /// counter, so totals stay truthful under concurrency.
  void AbsorbStats(const Stats& other) { stats_ += other; }

  /// Drops the memo table (counted in cache_evictions / cache_clears).
  void ClearCache();

  const GridModel& grid() const { return *grid_; }  ///< the indexed grid
  const Options& options() const { return options_; }  ///< as constructed

 private:
  size_t Dispatch(const std::vector<DimRange>& conditions,
                  CountingStrategy strategy);
  size_t CountBitset(const std::vector<DimRange>& conditions);
  size_t CountPostings(const std::vector<DimRange>& conditions) const;
  size_t CountNaive(const std::vector<DimRange>& conditions) const;
  CountingStrategy Choose(const std::vector<DimRange>& conditions) const;

  const GridModel* grid_;
  Options options_;
  Stats stats_;
  DynamicBitset scratch_;
  std::unordered_map<CubeKey, size_t, CubeKeyHash> cache_;
};

}  // namespace hido

#endif  // HIDO_GRID_CUBE_COUNTER_H_
