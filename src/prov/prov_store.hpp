// ProvStore: the provenance-aware history store.
//
// Wraps a GraphStore with the browser-provenance schema (prov/schema.hpp)
// and maintains its invariants during ingestion:
//
//   - Canonical page nodes are deduplicated by URL; under the
//     node-versioning policy every page view adds a fresh kVisit node
//     linked kInstanceOf to its page, and navigation edges connect visit
//     instances — the graph is acyclic by construction because every
//     edge points either at a brand-new node or at a sink-kind canonical
//     node (kPage, kSearchTerm, kDownload).
//   - Under the edge-timestamping policy navigation edges connect
//     canonical page nodes directly and carry a `time` attribute; the
//     structural graph may contain cycles, but no time-respecting walk
//     does (edge times strictly increase along a user's traversal).
//   - Open/close times live on visit nodes (node policy), giving the
//     co-open relation of section 3.2 via an interval index.
//
// Trees are namespaced "prov." so the storage-overhead experiment can
// compare against "places.".
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/algo.hpp"
#include "graph/interval_index.hpp"
#include "graph/store.hpp"
#include "prov/schema.hpp"
#include "storage/pager.hpp"
#include "util/mutex.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"
#include "util/time.hpp"

namespace bp::prov {

using graph::NodeId;
using util::TimeMs;

struct ProvOptions {
  VersionPolicy policy = VersionPolicy::kVersionNodes;
  // Section 3.2 ablation: when false, close events are ignored — visits
  // never close, and time-contextual queries degrade exactly the way the
  // paper says Firefox does ("every page is always open").
  bool record_close_times = true;
};

class ProvStore {
 public:
  static util::Result<std::unique_ptr<ProvStore>> Open(storage::Db& db,
                                                       ProvOptions options);

  // A read-only handle on the same provenance store whose every lookup
  // — graph cursors, URL/term indexes, visit intervals — resolves
  // through `snap`: the snapshot-isolated query path (safe on a reader
  // thread while this live store keeps ingesting). Record*/Link* on the
  // returned store are contract violations. The handle shares this
  // store's visit-interval cache (see VisitIntervals). `snap` and this
  // store must outlive the handle.
  std::unique_ptr<ProvStore> AtSnapshot(const storage::Snapshot& snap) const;
  bool snapshot_bound() const { return bound_trees_.bound(); }

  // Groups many Record*/Link* calls into ONE storage transaction (each
  // call's own AutoTxn composes into it). Capture is bursty — a page
  // load emits several events back to back — and per-event transactions
  // pay the full durability cost every time; a batch pays it once. With
  // wal_group_commit > 1, adjacent batches additionally share a single
  // log fsync, which is the cheap sustained-ingest path the paper's
  // capture workload needs.
  //
  //   { prov::ProvStore::IngestBatch batch(*store);
  //     ... store->RecordVisit(...); store->RecordClose(...); ...
  //     BP_RETURN_IF_ERROR(batch.Commit()); }
  //
  // Destruction without Commit rolls the whole batch back. This is also
  // the unit of work of ProvenanceDb's async ingest committer: each
  // drained queue batch becomes exactly one IngestBatch, so a batch of
  // asynchronously captured events is all-or-nothing on disk.
  class IngestBatch {
   public:
    explicit IngestBatch(ProvStore& store) : txn_(store.db_.pager()) {}
    util::Status Commit() { return txn_.Commit(); }

   private:
    storage::AutoTxn txn_;
  };

  // ------------------------------------------------------- ingestion
  //
  // RecordVisit returns the node representing this page view: a fresh
  // kVisit node (node policy) or the canonical kPage node (edge policy).
  // `referrer` is the node returned for the causing view (0 = none).
  util::Result<NodeId> RecordVisit(std::string_view url,
                                   std::string_view title, EdgeKind action,
                                   NodeId referrer, TimeMs time,
                                   int64_t tab);

  // Marks the visit closed (tab closed / navigated away). No-op under
  // the edge policy or when record_close_times is off.
  util::Status RecordClose(NodeId visit, TimeMs time);

  // A search issued from `from_visit` (0 if typed into a fresh tab).
  // Creates/updates the canonical term node and a fresh issuance node.
  // Returns the issuance node; link the results page to it with
  // LinkSearchResult.
  util::Result<NodeId> RecordSearch(std::string_view query,
                                    NodeId from_visit, TimeMs time);
  util::Status LinkSearchResult(NodeId search_issue, NodeId results_visit);

  util::Result<NodeId> RecordBookmarkAdd(std::string_view title,
                                         NodeId from_visit, TimeMs time);
  // The visit produced by activating a bookmark.
  util::Status LinkBookmarkClick(NodeId bookmark, NodeId visit);

  util::Result<NodeId> RecordDownload(std::string_view source_url,
                                      std::string_view target_path,
                                      NodeId from_visit, TimeMs time);

  util::Result<NodeId> RecordFormSubmit(std::string_view summary,
                                        NodeId from_visit, TimeMs time);
  util::Status LinkFormResult(NodeId form, NodeId results_visit);

  // ---------------------------------------------------------- lookup
  //
  // All lookups run on the cursor read path; the optional `stats` sink
  // accumulates the rows they touch into a caller's QueryStats.
  util::Result<NodeId> PageForUrl(std::string_view url) const;
  util::Result<NodeId> TermForQuery(std::string_view query) const;

  // Canonical page of a view node. Node policy: follows kInstanceOf;
  // edge policy: identity.
  util::Result<NodeId> PageOfView(NodeId view,
                                  graph::QueryStats* stats = nullptr) const;

  // All visit instances of a page, ascending by node id (== by time).
  // Edge policy: returns {page} itself.
  util::Result<std::vector<NodeId>> ViewsOfPage(
      NodeId page, graph::QueryStats* stats = nullptr) const;

  // Visit nodes whose [open, close) span overlaps the query span (node
  // policy only — the edge policy cannot answer this, which is the
  // point of the E8 ablation). Built once per committed state: the live
  // store and every AtSnapshot handle share one cache keyed by commit
  // sequence, so a handle at the cached sequence adopts the index, and
  // a miss scans every node (charging the rows to `stats`) and then
  // publishes its index if it is newer than the cached one. Inside an
  // open write transaction the live store builds an index of its own
  // that is never shared. The pointer stays valid until the next call
  // on this handle.
  util::Result<const graph::IntervalIndex*> VisitIntervals(
      graph::QueryStats* stats = nullptr);
  // Interval-index builds by this store and its AtSnapshot handles.
  uint64_t interval_index_builds() const {
    return interval_cache_->builds.load(std::memory_order_relaxed);
  }

  // ------------------------------------------------------ integrity
  // Node policy: structural acyclicity. Edge policy: every navigation
  // edge carries a time attribute.
  util::Result<bool> CheckInvariants() const;

  graph::GraphStore& graph() { return *graph_; }
  const graph::GraphStore& graph() const { return *graph_; }
  const ProvOptions& options() const { return options_; }

  // Nodes/edges created so far (cheap counters for benches).
  util::Result<uint64_t> NodeCount() const { return graph_->NodeCount(); }
  util::Result<uint64_t> EdgeCount() const { return graph_->EdgeCount(); }

 private:
  ProvStore(storage::Db& db, ProvOptions options)
      : db_(db), options_(options) {}

  util::Result<NodeId> UpsertPage(std::string_view url,
                                  std::string_view title);
  util::Result<NodeId> UpsertTerm(std::string_view query);

  storage::Db& db_;
  ProvOptions options_;
  std::unique_ptr<graph::GraphStore> graph_;
  storage::BTree* url_index_ = nullptr;   // url -> page node
  storage::BTree* term_index_ = nullptr;  // query -> term node
  // Snapshot-bound handles (AtSnapshot): the index pointers above point
  // into this owned storage instead of the Db's live handles.
  storage::BoundTrees bound_trees_;

  // The newest visit-interval index any handle of this store built,
  // with the commit sequence it was built at. Immutable once published,
  // so readers on other threads share it.
  struct IntervalCache {
    util::Mutex mu;
    uint64_t seq BP_GUARDED_BY(mu) = 0;
    std::shared_ptr<const graph::IntervalIndex> index BP_GUARDED_BY(mu);
    std::atomic<uint64_t> builds{0};
  };
  std::shared_ptr<IntervalCache> interval_cache_ =
      std::make_shared<IntervalCache>();
  // Set by AtSnapshot: the commit sequence the bound snapshot froze.
  uint64_t snapshot_seq_ = 0;
  // What VisitIntervals last returned on this handle, and the committed
  // state it was built from (nullopt: built inside a transaction).
  std::shared_ptr<const graph::IntervalIndex> intervals_;
  std::optional<uint64_t> intervals_seq_;
};

}  // namespace bp::prov
