#ifndef TBC_BASE_LEVELIZE_H_
#define TBC_BASE_LEVELIZE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace tbc {

/// A topological level schedule for one circuit traversal (DESIGN.md
/// "Kernel layer").
///
/// Level 0 holds the leaves; a node's level is 1 + the maximum level of its
/// children, so every node's inputs come before it in `order`. Evaluation
/// passes sweep `order` front to back (the upward pass) or back to front
/// (the marginals' downward pass). Within each level nodes appear in
/// ascending id order, so the schedule, and with it the order in which a
/// pass adds into shared slots, is a pure function of the circuit.
struct LevelSchedule {
  static constexpr uint32_t kNoRank = static_cast<uint32_t>(-1);

  /// Reachable nodes, children strictly before parents, grouped by level.
  std::vector<uint32_t> order;
  /// Level l occupies order[level_begin[l] .. level_begin[l+1]).
  std::vector<uint32_t> level_begin;
  /// rank[id] = position of id in `order`; kNoRank when unreachable.
  /// Dense value arrays are indexed by rank, so a pass over a small
  /// subcircuit of a large manager allocates O(reachable), not O(manager).
  std::vector<uint32_t> rank;

  size_t num_reachable() const { return order.size(); }
};

/// The nodes reachable from `root` in ascending id order, children before
/// parents: the one walk of the NNF, OBDD and formula stores (DESIGN.md).
/// `for_each_child(id, fn)` must invoke fn(child_id) for every child of
/// `id`, and children must have smaller ids than their parents (nodes are
/// created bottom-up), so one sweep down from the root marks the reachable
/// set and one scan up lists it.
template <typename ForEachChild>
std::vector<uint32_t> ReachableAscending(uint32_t root,
                                         ForEachChild&& for_each_child) {
  std::vector<uint8_t> seen(size_t{root} + 1, 0);
  seen[root] = 1;
  size_t count = 0;
  for (uint32_t n = root + 1; n-- > 0;) {
    if (!seen[n]) continue;
    ++count;
    for_each_child(n, [&](uint32_t c) { seen[c] = 1; });
  }
  std::vector<uint32_t> order;
  order.reserve(count);
  for (uint32_t n = 0; n <= root; ++n) {
    if (seen[n]) order.push_back(n);
  }
  return order;
}

/// Computes the level schedule of the subgraph reachable from `root`.
/// `for_each_child` and the children-first ids are as for
/// ReachableAscending.
template <typename ForEachChild>
LevelSchedule Levelize(size_t num_nodes, uint32_t root,
                       ForEachChild&& for_each_child) {
  LevelSchedule s;
  constexpr uint32_t kNoRank = LevelSchedule::kNoRank;
  s.rank.assign(num_nodes, kNoRank);

  // Reachability: the sweep of ReachableAscending, but marking in the
  // rank array this schedule returns anyway (rank 0 = marked). Routing
  // it through ReachableAscending costs a second array and a second scan
  // on the served compile path: servebench `cold` p10 read 1.00-1.11x
  // slower in 8 of 8 alternated pairs that way (DESIGN.md).
  s.rank[root] = 0;
  size_t count = 0;
  for (uint32_t n = root + 1; n-- > 0;) {
    if (s.rank[n] == kNoRank) continue;
    ++count;
    for_each_child(n, [&](uint32_t c) { s.rank[c] = 0; });
  }

  // One scan up the marks lists the reachable nodes in id order and
  // assigns levels (children precede parents by id); until the final
  // pass, rank[id] holds the level of a reachable id.
  std::vector<uint32_t> reachable;
  reachable.reserve(count);
  uint32_t max_level = 0;
  for (uint32_t n = 0; n <= root; ++n) {
    if (s.rank[n] == kNoRank) continue;
    uint32_t lvl = 0;
    for_each_child(n, [&](uint32_t c) { lvl = std::max(lvl, s.rank[c] + 1); });
    s.rank[n] = lvl;
    max_level = std::max(max_level, lvl);
    reachable.push_back(n);
  }

  // Counting sort by level; ascending id within a level (stable).
  s.level_begin.assign(max_level + 2, 0);
  for (uint32_t n : reachable) ++s.level_begin[s.rank[n] + 1];
  for (size_t l = 1; l < s.level_begin.size(); ++l) {
    s.level_begin[l] += s.level_begin[l - 1];
  }
  s.order.resize(reachable.size());
  std::vector<uint32_t> cursor(s.level_begin.begin(), s.level_begin.end() - 1);
  for (uint32_t n : reachable) s.order[cursor[s.rank[n]]++] = n;
  for (size_t i = 0; i < s.order.size(); ++i) {
    s.rank[s.order[i]] = static_cast<uint32_t>(i);
  }
  return s;
}

}  // namespace tbc

#endif  // TBC_BASE_LEVELIZE_H_
