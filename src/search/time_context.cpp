#include "search/time_context.hpp"

#include <algorithm>
#include <unordered_set>

#include "graph/interval_index.hpp"

namespace bp::search {

using graph::Node;
using prov::NodeKind;
using util::Result;
using util::TimeSpan;

Result<TimeContextResult> TimeContextualSearch(
    HistorySearcher& searcher, const std::string& primary_query,
    const std::string& context_query, const TimeContextOptions& options) {
  prov::ProvStore& store = searcher.store();

  TimeContextResult result;
  BP_ASSIGN_OR_RETURN(
      ContextualSearchResult primary,
      searcher.TextualSearch(primary_query, options.candidate_pool));
  BP_ASSIGN_OR_RETURN(
      ContextualSearchResult context,
      searcher.TextualSearch(context_query, options.candidate_pool));
  result.stats += primary.stats;
  result.stats += context.stats;

  // Visit nodes of every context page.
  std::unordered_set<NodeId> context_visits;
  for (const RankedPage& page : context.pages) {
    BP_ASSIGN_OR_RETURN(std::vector<NodeId> views,
                        store.ViewsOfPage(page.page, &result.stats));
    context_visits.insert(views.begin(), views.end());
  }

  BP_ASSIGN_OR_RETURN(const graph::IntervalIndex* intervals,
                      store.VisitIntervals(&result.stats));

  graph::BudgetScope budget_scope(options.budget, &result.stats);
  for (const RankedPage& page : primary.pages) {
    if (options.budget != nullptr && !options.budget->Charge()) {
      result.truncated = true;
      break;
    }
    TimeContextMatch match;
    match.page = page;

    BP_ASSIGN_OR_RETURN(std::vector<NodeId> views,
                        store.ViewsOfPage(page.page, &result.stats));
    for (NodeId view : views) {
      BP_ASSIGN_OR_RETURN(graph::NodeRef node,
                          store.graph().GetNodeRef(view, &result.stats));
      if (node.kind() != static_cast<uint32_t>(NodeKind::kVisit)) continue;
      BP_ASSIGN_OR_RETURN(graph::AttrMap attrs, node.attrs());
      TimeSpan span;
      span.open = attrs.IntOr(prov::kAttrOpen, 0);
      span.close = attrs.IntOr(prov::kAttrClose, util::kTimeMax);
      for (uint64_t other : intervals->Overlapping(span)) {
        if (other == view || context_visits.count(other) == 0) continue;
        match.co_open = true;
        BP_ASSIGN_OR_RETURN(graph::NodeRef other_node,
                            store.graph().GetNodeRef(other, &result.stats));
        BP_ASSIGN_OR_RETURN(graph::AttrMap other_attrs, other_node.attrs());
        TimeSpan other_span;
        other_span.open = other_attrs.IntOr(prov::kAttrOpen, 0);
        other_span.close =
            other_attrs.IntOr(prov::kAttrClose, util::kTimeMax);
        const auto lo = std::max(span.open, other_span.open);
        const auto hi = std::min(span.close, other_span.close);
        if (hi > lo) match.overlap_ms += static_cast<double>(hi - lo);
      }
    }

    match.page.total = match.page.text_score *
                       (match.co_open ? options.co_open_boost : 1.0);
    result.matches.push_back(std::move(match));
  }

  std::sort(result.matches.begin(), result.matches.end(),
            [](const TimeContextMatch& a, const TimeContextMatch& b) {
              if (a.page.total != b.page.total) {
                return a.page.total > b.page.total;
              }
              if (a.overlap_ms != b.overlap_ms) {
                return a.overlap_ms > b.overlap_ms;
              }
              return a.page.page < b.page.page;
            });
  if (result.matches.size() > options.k) result.matches.resize(options.k);
  budget_scope.Flush();  // before `result` moves into the Result
  return result;
}

}  // namespace bp::search
