// SpmInstance: one fully-specified SPM problem — the WAN, the billing cycle,
// the request set and each request's candidate path set P_i.
//
// Candidate paths are the L_i cheapest loop-free paths between the request's
// endpoints (Yen's algorithm, price metric), computed once per distinct DC
// pair and shared.
#pragma once

#include <vector>

#include "net/paths.h"
#include "net/topology.h"
#include "workload/request.h"

namespace metis::core {

struct InstanceConfig {
  /// Time slots T per billing cycle (the paper evaluates T = 12).
  int num_slots = 12;
  /// Maximum number of candidate paths per request (L_i <= this).
  int max_paths = 4;
};

class SpmInstance {
 public:
  /// Validates every request against the topology/cycle and precomputes the
  /// candidate path sets.  Requests between disconnected pairs are rejected
  /// with std::invalid_argument (the generator never produces them).
  ///
  /// `path_cache` (optional): a net::PathCache built over a topology with
  /// the same edges as `topology`, through which the per-pair Yen runs are
  /// memoized.  The online pipeline passes one cache across all of a
  /// cycle's batch instances so recurring (src, dst) pairs cost a lookup;
  /// nullptr computes paths from scratch (identical results either way).
  ///
  /// `require_paths` (optional): per-request concrete paths that must
  /// appear in the request's candidate set.  A reserved path need not be
  /// among Yen's k shortest (a fault repair may have rerouted it, and after
  /// a topology mutation Yen may rank paths differently), so a caller that
  /// indexes reservations among the candidates — CommittedBook::validate,
  /// OnlineResult::schedule (sim::reserved_schedule) — passes each
  /// reserved path here; if Yen's set misses it, it is appended.  Each
  /// non-empty entry must be a live (all edges enabled) simple src->dst
  /// path; empty entries request nothing.  nullptr (or all-empty) leaves
  /// the candidate sets byte-identical to the plain construction.
  SpmInstance(net::Topology topology, std::vector<workload::Request> requests,
              InstanceConfig config = {}, net::PathCache* path_cache = nullptr,
              const std::vector<net::Path>* require_paths = nullptr);

  const net::Topology& topology() const { return topology_; }
  const std::vector<workload::Request>& requests() const { return requests_; }
  const workload::Request& request(int i) const { return requests_.at(i); }

  int num_requests() const { return static_cast<int>(requests_.size()); }
  int num_slots() const { return config_.num_slots; }
  int num_edges() const { return topology_.num_edges(); }

  /// Candidate paths of request i (size L_i >= 1).
  const std::vector<net::Path>& paths(int i) const { return paths_.at(i); }
  int num_paths(int i) const { return static_cast<int>(paths_.at(i).size()); }

  /// I_{i,j,e}: whether edge e lies on path P_{i,j}.
  bool path_uses_edge(int i, int j, net::EdgeId e) const;

  const InstanceConfig& config() const { return config_; }

 private:
  net::Topology topology_;
  std::vector<workload::Request> requests_;
  InstanceConfig config_;
  std::vector<std::vector<net::Path>> paths_;
  // Per (request, path): bitmap over edges for O(1) I_{i,j,e} lookups.
  std::vector<std::vector<std::vector<bool>>> uses_edge_;
};

}  // namespace metis::core
