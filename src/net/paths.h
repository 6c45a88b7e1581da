// Path computation: Dijkstra shortest path, Yen's k-shortest simple paths,
// and an exhaustive DFS enumeration used as a test oracle.
//
// Path weights are edge prices by default (the candidate path sets P_i in
// the paper are the cheapest alternatives between a DC pair), with hop count
// available as an alternative metric.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "net/topology.h"

namespace metis::net {

/// A directed simple path, stored as consecutive edge ids.
struct Path {
  std::vector<EdgeId> edges;

  bool empty() const { return edges.empty(); }
  std::size_t hops() const { return edges.size(); }
  bool operator==(const Path& other) const = default;
};

enum class PathMetric { Price, Hops };

/// Sum of the path's edge weights under the metric.
double path_weight(const Topology& topo, const Path& path, PathMetric metric);

/// Source node of a non-empty path.
NodeId path_source(const Topology& topo, const Path& path);
/// Destination node of a non-empty path.
NodeId path_destination(const Topology& topo, const Path& path);

/// True if `path` is a contiguous, node-simple src->dst walk in `topo`
/// (false, not a throw, for an edge id outside `topo`).
bool is_simple_path(const Topology& topo, const Path& path, NodeId src, NodeId dst);

/// Dijkstra; std::nullopt if dst is unreachable.  `forbidden_nodes` /
/// `forbidden_edges` (optional, may be empty) support Yen's spur search.
std::optional<Path> shortest_path(const Topology& topo, NodeId src, NodeId dst,
                                  PathMetric metric = PathMetric::Price,
                                  const std::vector<bool>* forbidden_nodes = nullptr,
                                  const std::vector<bool>* forbidden_edges = nullptr);

/// Yen's algorithm: up to k loop-free paths in nondecreasing weight order.
/// Returns fewer than k when the graph does not contain that many.
std::vector<Path> k_shortest_paths(const Topology& topo, NodeId src, NodeId dst,
                                   int k, PathMetric metric = PathMetric::Price);

/// Exhaustive enumeration of all simple paths with at most `max_hops` hops
/// (test oracle; exponential, use on small graphs only).
std::vector<Path> all_simple_paths(const Topology& topo, NodeId src, NodeId dst,
                                   int max_hops);

/// Memoizing front-end for k_shortest_paths, keyed by (src, dst, k, metric)
/// *and the topology's mutation epoch*.  The online admission pipeline
/// rebuilds an SpmInstance per batch over one topology, re-running Yen for
/// the same DC pairs every time; routing this through a cache makes
/// recurring pairs a lookup.  When the referenced topology mutates (fault
/// injection disables a link, overrides a capacity, shocks a price) its
/// epoch advances and the next lookup flushes every entry — stale paths are
/// invalidated, never served.  The cache holds a reference to the topology
/// it was built for and must not outlive it; it may serve any topology
/// *copy* with identical edges and epoch (candidate paths are edge-id
/// lists).  Not thread-safe — one cache per simulation thread.
class PathCache {
 public:
  explicit PathCache(const Topology& topo)
      : topo_(&topo), epoch_(topo.epoch()) {}

  /// Cached k_shortest_paths(topo, src, dst, k, metric).  The reference is
  /// stable until the cache is destroyed or the topology mutates (std::map
  /// nodes do not move, but an epoch change flushes them).
  const std::vector<Path>& paths(NodeId src, NodeId dst, int k,
                                 PathMetric metric = PathMetric::Price);

  std::size_t hits() const { return hits_; }     ///< lookups served cached
  std::size_t misses() const { return misses_; }  ///< lookups that ran Yen
  /// Entries flushed because the topology epoch moved underneath them
  /// (also exported as the "net.path_cache_stale" telemetry counter).
  std::size_t stale() const { return stale_; }

  // --- checkpoint image (src/persist/) ----------------------------------
  /// Plain-data image of the cache: every entry plus the hit/miss/stale
  /// counters and the epoch the entries were computed under.
  struct Dump {
    struct Entry {
      NodeId src = 0;
      NodeId dst = 0;
      int k = 0;
      int metric = 0;  ///< static_cast<int>(PathMetric)
      std::vector<Path> paths;
    };
    std::vector<Entry> entries;  ///< sorted by (src, dst, k, metric)
    std::uint64_t epoch = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stale = 0;
  };
  Dump dump() const;
  /// Replaces the cache's contents and counters with `d`.  The image epoch
  /// may equal the topology's epoch or lag it (mutations flush lazily, so a
  /// snapshot taken between a mutation and the next lookup carries the
  /// pre-mutation epoch; the restored cache then flushes on first lookup
  /// exactly as the live one would).  An image *ahead* of the topology's
  /// epoch cannot have come from it, and neither can a cached path that is
  /// not a simple src->dst path of the topology: both throw
  /// std::invalid_argument and leave the cache unchanged.
  void restore(const Dump& d);

 private:
  const Topology* topo_;
  std::uint64_t epoch_;
  std::map<std::tuple<NodeId, NodeId, int, int>, std::vector<Path>> cache_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t stale_ = 0;
};

}  // namespace metis::net
