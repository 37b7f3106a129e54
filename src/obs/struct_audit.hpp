// Online structural auditor — a read-only census of a live tree.
//
// ROADMAP item 3 (COW SMOs) needs SMO depth and inner-node shape; the
// capacity-abort story (transaction footprint ~ node size x fill) needs fill
// factors; the allocator's reuse policy needs a fragmentation picture.  This
// header turns any tree exposing the introspection surface
// (visit_inner/visit_leaves + capacity constants, see core/rntree.hpp) into
// a StructureReport:
//
//   * per inner level: node count, fill factor (separators/fanout) avg,
//     p50, p99;
//   * leaf level: leaf count, live entries, fill avg/p50/p99
//     (live/slot-capacity), log-area occupancy (allocated log entries /
//     capacity — how close leaves are to forced splits), chain occupancy
//     (live entries / total slot capacity across the chain);
//   * the NVM pool's fragmentation map (nvm::PmemPool::fragmentation()).
//
// The walk is epoch-safe (the tree pins a guard; inner nodes are COW) and
// pull-based: nothing here touches the op hot path, so unlike the heatmap it
// needs no compile-out gate — if you never call audit_tree, it costs
// nothing.  Counts are relaxed snapshots: approximate under concurrent
// writers, exact on a quiescent tree.
//
// Benches publish a rendered report via set_structure_section(); the
// exporter (export.cpp) then emits it as the "structure" JSON section.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nvm/pool.hpp"

namespace rnt::obs {

struct LevelStats {
  int level = 0;        ///< inner level (0 = directly over leaves)
  std::uint64_t nodes = 0;
  double fill_avg = 0.0;  ///< separators / fanout
  double fill_p50 = 0.0;
  double fill_p99 = 0.0;
};

struct LeafLevelStats {
  std::uint64_t leaves = 0;
  std::uint64_t live_entries = 0;
  std::uint64_t log_used = 0;     ///< claimed (not free) log entries across the chain
  double fill_avg = 0.0;          ///< live / slot capacity
  double fill_p50 = 0.0;
  double fill_p99 = 0.0;
  double chain_occupancy = 0.0;   ///< live_entries / (leaves * slot capacity)
  double log_occupancy = 0.0;     ///< log_used / (leaves * log capacity)
};

struct StructureReport {
  std::string tree;     ///< which tree was audited (bench label)
  int height = 0;       ///< inner levels (tree.height())
  int inner_fanout = 0;
  int slot_capacity = 0;
  int log_capacity = 0;
  std::vector<LevelStats> levels;  ///< sorted by level descending (root first)
  LeafLevelStats leaf;
  bool has_frag = false;
  nvm::PoolFragmentation frag;
};

namespace detail {
/// p50/p99 over raw fill ratios (nearest-rank); sorts @p fills in place.
void fill_percentiles(std::vector<double>& fills, double& avg, double& p50,
                      double& p99);
}  // namespace detail

/// Audit @p tree (any type with visit_inner/visit_leaves + the capacity
/// constants).  Safe concurrently with readers and writers.
template <typename Tree>
StructureReport audit_tree(const Tree& tree) {
  StructureReport rep;
  rep.height = tree.height();
  rep.inner_fanout = Tree::inner_fanout();
  rep.slot_capacity = Tree::slot_capacity();
  rep.log_capacity = Tree::log_capacity();

  // Inner levels: one fill sample per node, grouped by level.
  std::vector<std::vector<double>> by_level;
  tree.visit_inner([&](int level, int count) {
    if (level >= static_cast<int>(by_level.size()))
      by_level.resize(static_cast<std::size_t>(level) + 1);
    by_level[static_cast<std::size_t>(level)].push_back(
        static_cast<double>(count) / rep.inner_fanout);
  });
  for (int lvl = static_cast<int>(by_level.size()) - 1; lvl >= 0; --lvl) {
    std::vector<double>& fills = by_level[static_cast<std::size_t>(lvl)];
    if (fills.empty()) continue;
    LevelStats ls;
    ls.level = lvl;
    ls.nodes = fills.size();
    detail::fill_percentiles(fills, ls.fill_avg, ls.fill_p50, ls.fill_p99);
    rep.levels.push_back(ls);
  }

  // Leaf chain.
  std::vector<double> leaf_fills;
  tree.visit_leaves([&](int live, std::uint32_t log_used) {
    ++rep.leaf.leaves;
    rep.leaf.live_entries += static_cast<std::uint64_t>(live);
    rep.leaf.log_used += log_used;
    leaf_fills.push_back(static_cast<double>(live) / rep.slot_capacity);
  });
  detail::fill_percentiles(leaf_fills, rep.leaf.fill_avg, rep.leaf.fill_p50,
                           rep.leaf.fill_p99);
  if (rep.leaf.leaves > 0) {
    rep.leaf.chain_occupancy =
        static_cast<double>(rep.leaf.live_entries) /
        (static_cast<double>(rep.leaf.leaves) * rep.slot_capacity);
    rep.leaf.log_occupancy =
        static_cast<double>(rep.leaf.log_used) /
        (static_cast<double>(rep.leaf.leaves) * rep.log_capacity);
  }
  return rep;
}

/// Audit @p tree and attach @p pool's fragmentation map.
template <typename Tree>
StructureReport audit_tree(const Tree& tree, nvm::PmemPool& pool) {
  StructureReport rep = audit_tree(tree);
  rep.frag = pool.fragmentation();
  rep.has_frag = true;
  return rep;
}

/// Render @p rep as the "structure" JSON section body (object, no trailing
/// newline; indentation matches the exporter's section style).
std::string structure_json(const StructureReport& rep);

/// Publish a rendered structure section for the next --stats-json export
/// (benches call this after their run; "" clears it).  The exporter
/// consumes it via structure_section().
void set_structure_section(std::string json);
std::string structure_section();

}  // namespace rnt::obs
