// History search: the textual baseline and the provenance-aware
// contextual reranker (use case 2.1).
//
// Baseline ("Currently" in the paper): BM25 over page titles and URLs —
// it finds the rosebud *results page* but not Citizen Kane, because
// nothing connects the term to the film.
//
// Provenance-aware ("With Provenance"): after the textual stage, scores
// spread through the provenance neighborhood (Shah et al.'s reranking,
// which the paper cites as "readily extensible to history search"), so a
// first-generation descendant of the rosebud search page "receives
// substantial weight". Search-term nodes matching the query are seeded
// too (section 3.3: terms are user-generated descriptors in the lineage
// of the pages they generate).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "prov/prov_store.hpp"
#include "text/index.hpp"
#include "util/budget.hpp"
#include "util/status.hpp"

namespace bp::search {

using graph::NodeId;

struct RankedPage {
  NodeId page = 0;
  std::string url;
  std::string title;
  double text_score = 0.0;  // BM25 on the page's own text
  double prov_score = 0.0;  // provenance-neighborhood weight
  double total = 0.0;
};

struct ContextualSearchOptions {
  size_t k = 10;             // results to return
  size_t text_seeds = 20;    // textual candidates to expand from
  uint32_t expand_depth = 3; // neighborhood radius (graph hops)
  double decay = 0.5;        // per-hop weight decay
  double prov_weight = 1.0;  // blend: total = text + prov_weight * prov
  // Section 3.2 edge unification: skip redirect/embed edges during
  // expansion (they carry no user intent). Ablated by E9.
  bool unify_automatic_edges = true;
  util::QueryBudget* budget = nullptr;  // optional anytime bound
};

struct ContextualSearchResult {
  std::vector<RankedPage> pages;
  bool truncated = false;
  // Graph-side work: expansion rows/edges plus the page records folded
  // and fetched. (The inverted index's own postings reads are not graph
  // rows and are not counted here.)
  graph::QueryStats stats;
};

// Owns the inverted index over history pages (trees "textindex.*") and
// runs both search flavors against a ProvStore.
class HistorySearcher {
 public:
  static util::Result<std::unique_ptr<HistorySearcher>> Open(
      storage::Db& db, prov::ProvStore& store);

  // A read-only searcher over `snap`: the inverted index and all graph
  // expansion resolve through the snapshot, so queries on the returned
  // searcher are safe on a reader thread while the live stack keeps
  // ingesting. `bound_store` must be the matching ProvStore::AtSnapshot
  // handle (same snapshot); IndexNewPages on the result is a contract
  // violation — index BEFORE snapshotting so the frozen view is fully
  // searchable. `snap` and `bound_store` must outlive the result.
  util::Result<std::unique_ptr<HistorySearcher>> AtSnapshot(
      const storage::Snapshot& snap, prov::ProvStore& bound_store) const;
  bool snapshot_bound() const { return bound_; }

  // Indexes canonical pages with ids above the index's watermark, then
  // advances the watermark to the highest node id scanned. The index
  // persists the watermark with the postings it covers (one Flush, one
  // transaction), so it can be called after every ingestion batch and a
  // reopened searcher resumes where the durable index ends: a clean
  // reopen indexes and commits nothing, and a reopen after un-indexed
  // ingest catches up only that tail.
  util::Status IndexNewPages();

  // Baseline: BM25 only. Returns pages ranked by text_score.
  util::Result<ContextualSearchResult> TextualSearch(
      const std::string& query, size_t k);

  // Use case 2.1. Textual seeds + decay expansion through the provenance
  // graph; final rank blends both signals.
  util::Result<ContextualSearchResult> ContextualSearch(
      const std::string& query, const ContextualSearchOptions& options);

  prov::ProvStore& store() { return store_; }
  text::InvertedIndex& index() { return *index_; }

 private:
  HistorySearcher(storage::Db& db, prov::ProvStore& store)
      : db_(db), store_(store) {}

  util::Result<RankedPage> MakeRankedPage(NodeId page_node,
                                          graph::QueryStats* stats) const;

  storage::Db& db_;
  prov::ProvStore& store_;
  std::unique_ptr<text::InvertedIndex> index_;
  bool bound_ = false;  // snapshot-bound handle (AtSnapshot)
};

}  // namespace bp::search
