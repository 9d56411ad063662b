#include "compress/edge_costs.h"

#include <unordered_set>

namespace qtf {

Result<double> EdgeCostProvider::EdgeCost(int target, int q) {
  const auto key = std::make_pair(target, q);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      if (metric_cache_hits_ != nullptr) metric_cache_hits_->Increment();
      return it->second;
    }
  }
  if (cancel_.cancelled()) {
    return Status::Cancelled("edge cost computation cancelled");
  }

  OptimizerOptions options;
  options.cancel = cancel_;
  for (RuleId id : suite_->targets[static_cast<size_t>(target)].rules) {
    options.disabled_rules.insert(id);
  }

  const FaultInjector* injector = optimizer_->fault_injector();
  const Query& query = suite_->queries[static_cast<size_t>(q)].query;
  // The salt decorrelates deterministic fault decisions per edge and per
  // attempt: without it a rule-site fault would reproduce identically on
  // every retry and retrying would be pointless.
  Result<double> outcome = RetryTransient(
      injector, optimizer_->metrics(),
      [target, q](int attempt) {
        return FaultInjector::EdgeKey(target, q, attempt);
      },
      [&](uint64_t salt) -> Result<double> {
        if (injector != nullptr && injector->enabled()) {
          // The task infrastructure itself can fail before the search
          // starts.
          QTF_RETURN_NOT_OK(injector->Probe(fault_sites::kPrefetchTask, salt));
        }
        calls_.Increment();
        if (metric_calls_ != nullptr) metric_calls_->Increment();
        options.fault_salt = salt;
        QTF_ASSIGN_OR_RETURN(OptimizeResult result,
                             optimizer_->Optimize(query, options));
        return result.cost;
      });
  if (outcome.status().code() == StatusCode::kCancelled) {
    // Cancellation is caller intent, not edge state: never memoized.
    return outcome;
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = cache_.emplace(key, outcome);
  (void)inserted;
  return it->second;
}

Status EdgeCostProvider::Prefetch(
    const std::vector<std::pair<int, int>>& edges) {
  if (pool_ == nullptr || pool_->num_threads() <= 1) return Status::OK();
  if (cancel_.cancelled()) {
    return Status::Cancelled("edge prefetch cancelled");
  }

  // Dedupe and drop already-cached edges so every submitted task is
  // exactly one optimizer invocation the serial path would also make.
  std::vector<std::pair<int, int>> todo;
  todo.reserve(edges.size());
  {
    std::unordered_set<std::pair<int, int>, EdgeKeyHash> seen;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& edge : edges) {
      if (cache_.count(edge) > 0) continue;
      if (!seen.insert(edge).second) continue;
      todo.push_back(edge);
    }
  }
  if (todo.empty()) return Status::OK();
  if (metric_prefetch_waves_ != nullptr) {
    metric_prefetch_waves_->Increment();
    metric_prefetch_edges_->Increment(static_cast<int64_t>(todo.size()));
  }

  std::vector<Status> statuses = ParallelFor(
      pool_, static_cast<int>(todo.size()), [this, &todo](int i) {
        const auto& edge = todo[static_cast<size_t>(i)];
        return this->EdgeCost(edge.first, edge.second).status();
      });
  // Unavailable edges are memoized failures the lazy path degrades around
  // (see CompressTopKIndependent); everything else aborts the batch, with
  // cancellation reported first so callers see intent over incident.
  for (const Status& status : statuses) {
    if (status.code() == StatusCode::kCancelled) return status;
  }
  for (const Status& status : statuses) {
    if (!status.ok() && status.code() != StatusCode::kUnavailable) {
      return status;
    }
  }
  return Status::OK();
}

}  // namespace qtf
