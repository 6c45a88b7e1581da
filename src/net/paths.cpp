#include "net/paths.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <stdexcept>

#include "util/telemetry.h"

namespace metis::net {

namespace {

double edge_weight(const Topology& topo, EdgeId e, PathMetric metric) {
  return metric == PathMetric::Price ? topo.edge(e).price : 1.0;
}

}  // namespace

double path_weight(const Topology& topo, const Path& path, PathMetric metric) {
  double total = 0;
  for (EdgeId e : path.edges) total += edge_weight(topo, e, metric);
  return total;
}

NodeId path_source(const Topology& topo, const Path& path) {
  if (path.empty()) throw std::invalid_argument("path_source: empty path");
  return topo.edge(path.edges.front()).src;
}

NodeId path_destination(const Topology& topo, const Path& path) {
  if (path.empty()) throw std::invalid_argument("path_destination: empty path");
  return topo.edge(path.edges.back()).dst;
}

bool is_simple_path(const Topology& topo, const Path& path, NodeId src, NodeId dst) {
  if (path.empty()) return false;
  std::set<NodeId> seen{src};
  NodeId at = src;
  for (EdgeId e : path.edges) {
    if (e < 0 || e >= topo.num_edges()) return false;
    const Edge& edge = topo.edge(e);
    if (edge.src != at) return false;
    at = edge.dst;
    if (!seen.insert(at).second) return false;  // node revisited
  }
  return at == dst;
}

std::optional<Path> shortest_path(const Topology& topo, NodeId src, NodeId dst,
                                  PathMetric metric,
                                  const std::vector<bool>* forbidden_nodes,
                                  const std::vector<bool>* forbidden_edges) {
  if (!topo.valid_node(src) || !topo.valid_node(dst)) {
    throw std::invalid_argument("shortest_path: node out of range");
  }
  if (src == dst) return std::nullopt;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(topo.num_nodes(), kInf);
  std::vector<EdgeId> incoming(topo.num_nodes(), -1);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[src] = 0;
  heap.emplace(0.0, src);
  const auto node_ok = [&](NodeId n) {
    return !forbidden_nodes || !(*forbidden_nodes)[n];
  };
  if (!node_ok(src)) return std::nullopt;
  while (!heap.empty()) {
    const auto [d, node] = heap.top();
    heap.pop();
    if (d > dist[node]) continue;
    if (node == dst) break;
    for (EdgeId e : topo.out_edges(node)) {
      if (forbidden_edges && (*forbidden_edges)[e]) continue;
      const Edge& edge = topo.edge(e);
      if (!edge.enabled) continue;  // failed link (fault injection)
      if (!node_ok(edge.dst)) continue;
      const double nd = d + edge_weight(topo, e, metric);
      if (nd < dist[edge.dst]) {
        dist[edge.dst] = nd;
        incoming[edge.dst] = e;
        heap.emplace(nd, edge.dst);
      }
    }
  }
  if (incoming[dst] == -1) return std::nullopt;
  Path path;
  for (NodeId at = dst; at != src;) {
    const EdgeId e = incoming[at];
    path.edges.push_back(e);
    at = topo.edge(e).src;
  }
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

std::vector<Path> k_shortest_paths(const Topology& topo, NodeId src, NodeId dst,
                                   int k, PathMetric metric) {
  if (k <= 0) return {};
  std::vector<Path> found;
  auto first = shortest_path(topo, src, dst, metric);
  if (!first) return {};
  found.push_back(*std::move(first));

  // Candidate pool ordered by (weight, edge sequence) for determinism.
  auto cmp = [&](const Path& a, const Path& b) {
    const double wa = path_weight(topo, a, metric);
    const double wb = path_weight(topo, b, metric);
    if (wa != wb) return wa < wb;
    return a.edges < b.edges;
  };
  std::set<Path, decltype(cmp)> candidates(cmp);

  while (static_cast<int>(found.size()) < k) {
    const Path& last = found.back();
    // Spur from every prefix of the last accepted path.
    std::vector<bool> forbidden_nodes(topo.num_nodes(), false);
    NodeId spur_node = src;
    Path root_path;  // edges of `last` before the spur node
    for (std::size_t i = 0; i <= last.edges.size(); ++i) {
      if (i > 0) {
        const EdgeId prev = last.edges[i - 1];
        forbidden_nodes[topo.edge(prev).src] = true;  // nodes before spur
        root_path.edges.push_back(prev);
        spur_node = topo.edge(prev).dst;
      }
      if (i == last.edges.size()) break;  // spur at dst is meaningless
      // Forbid the next edge of every found path sharing this root.
      std::vector<bool> forbidden_edges(topo.num_edges(), false);
      for (const Path& p : found) {
        if (p.edges.size() <= root_path.edges.size()) continue;
        if (std::equal(root_path.edges.begin(), root_path.edges.end(),
                       p.edges.begin())) {
          forbidden_edges[p.edges[root_path.edges.size()]] = true;
        }
      }
      auto spur = shortest_path(topo, spur_node, dst, metric, &forbidden_nodes,
                                &forbidden_edges);
      if (spur) {
        Path total = root_path;
        total.edges.insert(total.edges.end(), spur->edges.begin(),
                           spur->edges.end());
        if (std::find(found.begin(), found.end(), total) == found.end()) {
          candidates.insert(std::move(total));
        }
      }
    }
    if (candidates.empty()) break;
    found.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return found;
}

namespace {
void dfs_paths(const Topology& topo, NodeId at, NodeId dst, int max_hops,
               std::vector<bool>& visited, Path& current,
               std::vector<Path>& out) {
  if (at == dst) {
    out.push_back(current);
    return;
  }
  if (static_cast<int>(current.edges.size()) >= max_hops) return;
  for (EdgeId e : topo.out_edges(at)) {
    if (!topo.edge(e).enabled) continue;
    const NodeId next = topo.edge(e).dst;
    if (visited[next]) continue;
    visited[next] = true;
    current.edges.push_back(e);
    dfs_paths(topo, next, dst, max_hops, visited, current, out);
    current.edges.pop_back();
    visited[next] = false;
  }
}
}  // namespace

std::vector<Path> all_simple_paths(const Topology& topo, NodeId src, NodeId dst,
                                   int max_hops) {
  if (!topo.valid_node(src) || !topo.valid_node(dst)) {
    throw std::invalid_argument("all_simple_paths: node out of range");
  }
  if (src == dst) return {};
  std::vector<Path> out;
  std::vector<bool> visited(topo.num_nodes(), false);
  visited[src] = true;
  Path current;
  dfs_paths(topo, src, dst, max_hops, visited, current, out);
  return out;
}

const std::vector<Path>& PathCache::paths(NodeId src, NodeId dst, int k,
                                          PathMetric metric) {
  // Entries are only valid for the topology epoch they were computed under;
  // any mutation (link failure, capacity override, price change) bumps the
  // epoch and flushes the whole cache instead of silently serving paths
  // over edges that may no longer exist.
  if (topo_->epoch() != epoch_) {
    stale_ += cache_.size();
    telemetry::count("net.path_cache_stale",
                     static_cast<std::int64_t>(cache_.size()));
    cache_.clear();
    epoch_ = topo_->epoch();
  }
  const auto key = std::make_tuple(src, dst, k, static_cast<int>(metric));
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    telemetry::count("net.path_cache_hits");
    return it->second;
  }
  ++misses_;
  telemetry::count("net.path_cache_misses");
  return cache_.emplace(key, k_shortest_paths(*topo_, src, dst, k, metric))
      .first->second;
}

PathCache::Dump PathCache::dump() const {
  Dump d;
  d.epoch = epoch_;
  d.hits = hits_;
  d.misses = misses_;
  d.stale = stale_;
  d.entries.reserve(cache_.size());
  for (const auto& [key, paths] : cache_) {
    d.entries.push_back(Dump::Entry{std::get<0>(key), std::get<1>(key),
                                    std::get<2>(key), std::get<3>(key),
                                    paths});
  }
  return d;
}

void PathCache::restore(const Dump& d) {
  // The image may *lag* the topology: mutations flush lazily, so a snapshot
  // taken between a mutation and the next lookup legitimately carries the
  // pre-mutation epoch (the restored cache then flushes on first lookup,
  // exactly as the uninterrupted cache would).  An image from a *future*
  // epoch cannot arise from a snapshot of this topology and is rejected.
  if (d.epoch > topo_->epoch()) {
    throw std::invalid_argument(
        "PathCache::restore: image epoch " + std::to_string(d.epoch) +
        " is ahead of the topology's epoch " +
        std::to_string(topo_->epoch()));
  }
  for (const Dump::Entry& e : d.entries) {
    for (const Path& p : e.paths) {
      if (!is_simple_path(*topo_, p, e.src, e.dst)) {
        throw std::invalid_argument(
            "PathCache::restore: a cached path for " + std::to_string(e.src) +
            "->" + std::to_string(e.dst) +
            " is not a simple path of the topology");
      }
    }
  }
  cache_.clear();
  for (const Dump::Entry& e : d.entries) {
    cache_[std::make_tuple(e.src, e.dst, e.k, e.metric)] = e.paths;
  }
  epoch_ = d.epoch;
  hits_ = static_cast<std::size_t>(d.hits);
  misses_ = static_cast<std::size_t>(d.misses);
  stale_ = static_cast<std::size_t>(d.stale);
}

}  // namespace metis::net
