#include "prov/prov_store.hpp"

#include "storage/pager.hpp"
#include "storage/table.hpp"
#include "util/require.hpp"
#include "util/serde.hpp"

namespace bp::prov {

using graph::AttrMap;
using graph::Direction;
using graph::Edge;
using graph::Node;
using storage::AutoTxn;
using storage::Index;
using util::Result;
using util::Status;

std::string_view NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kPage: return "page";
    case NodeKind::kVisit: return "visit";
    case NodeKind::kBookmark: return "bookmark";
    case NodeKind::kDownload: return "download";
    case NodeKind::kSearchTerm: return "search_term";
    case NodeKind::kSearchIssue: return "search_issue";
    case NodeKind::kFormSubmission: return "form_submission";
  }
  return "unknown";
}

std::string_view EdgeKindName(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kLink: return "link";
    case EdgeKind::kTyped: return "typed";
    case EdgeKind::kRedirect: return "redirect";
    case EdgeKind::kEmbed: return "embed";
    case EdgeKind::kNewTab: return "new_tab";
    case EdgeKind::kReload: return "reload";
    case EdgeKind::kInstanceOf: return "instance_of";
    case EdgeKind::kTermInstanceOf: return "term_instance_of";
    case EdgeKind::kSearchIssue: return "search_issue";
    case EdgeKind::kSearchResult: return "search_result";
    case EdgeKind::kBookmarkFrom: return "bookmark_from";
    case EdgeKind::kBookmarkClick: return "bookmark_click";
    case EdgeKind::kDownloadFrom: return "download_from";
    case EdgeKind::kFormFrom: return "form_from";
    case EdgeKind::kFormResult: return "form_result";
  }
  return "unknown";
}

Result<std::unique_ptr<ProvStore>> ProvStore::Open(storage::Db& db,
                                                   ProvOptions options) {
  std::unique_ptr<ProvStore> store(new ProvStore(db, options));
  BP_ASSIGN_OR_RETURN(store->graph_, graph::GraphStore::Open(db, "prov"));
  BP_ASSIGN_OR_RETURN(store->url_index_,
                      db.OpenOrCreateTree("prov.url_index"));
  BP_ASSIGN_OR_RETURN(store->term_index_,
                      db.OpenOrCreateTree("prov.term_index"));
  return store;
}

std::unique_ptr<ProvStore> ProvStore::AtSnapshot(
    const storage::Snapshot& snap) const {
  std::unique_ptr<ProvStore> view(new ProvStore(db_, options_));
  view->graph_ =
      std::make_unique<graph::GraphStore>(graph_->AtSnapshot(snap));
  view->url_index_ = view->bound_trees_.Bind(snap, url_index_);
  view->term_index_ = view->bound_trees_.Bind(snap, term_index_);
  view->interval_cache_ = interval_cache_;
  view->snapshot_seq_ = snap.commit_seq();
  return view;
}

Result<NodeId> ProvStore::UpsertPage(std::string_view url,
                                     std::string_view title) {
  Index index(url_index_);
  BP_ASSIGN_OR_RETURN(NodeId found, index.FirstEqual(url));
  if (found != 0) {
    BP_ASSIGN_OR_RETURN(Node page, graph_->GetNode(found));
    page.attrs.SetInt(kAttrVisitCount,
                      page.attrs.IntOr(kAttrVisitCount, 0) + 1);
    if (!title.empty()) {
      page.attrs.SetString(kAttrTitle, std::string(title));
    }
    BP_RETURN_IF_ERROR(graph_->PutNode(page));
    return found;
  }
  AttrMap attrs;
  attrs.SetString(kAttrUrl, std::string(url));
  attrs.SetString(kAttrTitle, std::string(title));
  attrs.SetInt(kAttrVisitCount, 1);
  BP_ASSIGN_OR_RETURN(
      NodeId id,
      graph_->AddNode(static_cast<uint32_t>(NodeKind::kPage), attrs));
  BP_RETURN_IF_ERROR(index.Add(url, id));
  return id;
}

Result<NodeId> ProvStore::UpsertTerm(std::string_view query) {
  Index index(term_index_);
  BP_ASSIGN_OR_RETURN(NodeId found, index.FirstEqual(query));
  if (found != 0) {
    BP_ASSIGN_OR_RETURN(Node term, graph_->GetNode(found));
    term.attrs.SetInt(kAttrUseCount,
                      term.attrs.IntOr(kAttrUseCount, 0) + 1);
    BP_RETURN_IF_ERROR(graph_->PutNode(term));
    return found;
  }
  AttrMap attrs;
  attrs.SetString(kAttrQuery, std::string(query));
  attrs.SetInt(kAttrUseCount, 1);
  BP_ASSIGN_OR_RETURN(
      NodeId id,
      graph_->AddNode(static_cast<uint32_t>(NodeKind::kSearchTerm), attrs));
  BP_RETURN_IF_ERROR(index.Add(query, id));
  return id;
}

Result<NodeId> ProvStore::RecordVisit(std::string_view url,
                                      std::string_view title,
                                      EdgeKind action, NodeId referrer,
                                      TimeMs time, int64_t tab) {
  BP_REQUIRE(!snapshot_bound(), "RecordVisit on a snapshot-bound store");
  BP_REQUIRE(IsNavigationEdge(action),
             "RecordVisit takes a navigation edge kind");
  AutoTxn txn(db_.pager());
  BP_ASSIGN_OR_RETURN(NodeId page, UpsertPage(url, title));

  NodeId view;
  if (options_.policy == VersionPolicy::kVersionNodes) {
    AttrMap attrs;
    attrs.SetInt(kAttrOpen, time);
    attrs.SetInt(kAttrTab, tab);
    attrs.SetInt(kAttrTransition, static_cast<int64_t>(action));
    BP_ASSIGN_OR_RETURN(
        view,
        graph_->AddNode(static_cast<uint32_t>(NodeKind::kVisit), attrs));
    BP_RETURN_IF_ERROR(
        graph_
            ->AddEdge(view, page,
                      static_cast<uint32_t>(EdgeKind::kInstanceOf), {})
            .status());
    if (referrer != 0) {
      AttrMap edge_attrs;
      edge_attrs.SetInt(kAttrTime, time);
      BP_RETURN_IF_ERROR(graph_
                             ->AddEdge(referrer, view,
                                       static_cast<uint32_t>(action),
                                       edge_attrs)
                             .status());
    }
  } else {
    // Edge-timestamping: the page node is the view; each traversal is an
    // edge instance carrying its time (Firefox's layout, section 3.1).
    view = page;
    if (referrer != 0) {
      AttrMap edge_attrs;
      edge_attrs.SetInt(kAttrTime, time);
      edge_attrs.SetInt(kAttrTab, tab);
      BP_RETURN_IF_ERROR(graph_
                             ->AddEdge(referrer, view,
                                       static_cast<uint32_t>(action),
                                       edge_attrs)
                             .status());
    }
  }
  BP_RETURN_IF_ERROR(txn.Commit());
  return view;
}

Status ProvStore::RecordClose(NodeId visit, TimeMs time) {
  BP_REQUIRE(!snapshot_bound(), "RecordClose on a snapshot-bound store");
  if (options_.policy != VersionPolicy::kVersionNodes ||
      !options_.record_close_times) {
    return Status::Ok();
  }
  BP_ASSIGN_OR_RETURN(Node node, graph_->GetNode(visit));
  if (node.kind != static_cast<uint32_t>(NodeKind::kVisit)) {
    return Status::InvalidArgument("RecordClose: not a visit node");
  }
  node.attrs.SetInt(kAttrClose, time);
  return graph_->PutNode(node);
}

Result<NodeId> ProvStore::RecordSearch(std::string_view query,
                                       NodeId from_visit, TimeMs time) {
  BP_REQUIRE(!snapshot_bound(), "RecordSearch on a snapshot-bound store");
  AutoTxn txn(db_.pager());
  BP_ASSIGN_OR_RETURN(NodeId term, UpsertTerm(query));
  AttrMap attrs;
  attrs.SetInt(kAttrTime, time);
  BP_ASSIGN_OR_RETURN(NodeId issue,
                      graph_->AddNode(
                          static_cast<uint32_t>(NodeKind::kSearchIssue),
                          attrs));
  BP_RETURN_IF_ERROR(
      graph_
          ->AddEdge(issue, term,
                    static_cast<uint32_t>(EdgeKind::kTermInstanceOf), {})
          .status());
  if (from_visit != 0) {
    BP_RETURN_IF_ERROR(
        graph_
            ->AddEdge(from_visit, issue,
                      static_cast<uint32_t>(EdgeKind::kSearchIssue), {})
            .status());
  }
  BP_RETURN_IF_ERROR(txn.Commit());
  return issue;
}

Status ProvStore::LinkSearchResult(NodeId search_issue,
                                   NodeId results_visit) {
  BP_REQUIRE(!snapshot_bound(), "LinkSearchResult on a snapshot-bound store");
  return graph_
      ->AddEdge(search_issue, results_visit,
                static_cast<uint32_t>(EdgeKind::kSearchResult), {})
      .status();
}

Result<NodeId> ProvStore::RecordBookmarkAdd(std::string_view title,
                                            NodeId from_visit,
                                            TimeMs time) {
  BP_REQUIRE(!snapshot_bound(), "RecordBookmarkAdd on a snapshot-bound store");
  AutoTxn txn(db_.pager());
  AttrMap attrs;
  attrs.SetString(kAttrTitle, std::string(title));
  attrs.SetInt(kAttrAdded, time);
  BP_ASSIGN_OR_RETURN(
      NodeId bookmark,
      graph_->AddNode(static_cast<uint32_t>(NodeKind::kBookmark), attrs));
  if (from_visit != 0) {
    BP_RETURN_IF_ERROR(
        graph_
            ->AddEdge(from_visit, bookmark,
                      static_cast<uint32_t>(EdgeKind::kBookmarkFrom), {})
            .status());
  }
  BP_RETURN_IF_ERROR(txn.Commit());
  return bookmark;
}

Status ProvStore::LinkBookmarkClick(NodeId bookmark, NodeId visit) {
  BP_REQUIRE(!snapshot_bound(), "LinkBookmarkClick on a snapshot-bound store");
  return graph_
      ->AddEdge(bookmark, visit,
                static_cast<uint32_t>(EdgeKind::kBookmarkClick), {})
      .status();
}

Result<NodeId> ProvStore::RecordDownload(std::string_view source_url,
                                         std::string_view target_path,
                                         NodeId from_visit, TimeMs time) {
  BP_REQUIRE(!snapshot_bound(), "RecordDownload on a snapshot-bound store");
  AutoTxn txn(db_.pager());
  AttrMap attrs;
  attrs.SetString(kAttrUrl, std::string(source_url));
  attrs.SetString(kAttrTarget, std::string(target_path));
  attrs.SetInt(kAttrTime, time);
  BP_ASSIGN_OR_RETURN(
      NodeId download,
      graph_->AddNode(static_cast<uint32_t>(NodeKind::kDownload), attrs));
  if (from_visit != 0) {
    BP_RETURN_IF_ERROR(
        graph_
            ->AddEdge(from_visit, download,
                      static_cast<uint32_t>(EdgeKind::kDownloadFrom), {})
            .status());
  }
  BP_RETURN_IF_ERROR(txn.Commit());
  return download;
}

Result<NodeId> ProvStore::RecordFormSubmit(std::string_view summary,
                                           NodeId from_visit, TimeMs time) {
  BP_REQUIRE(!snapshot_bound(), "RecordFormSubmit on a snapshot-bound store");
  AutoTxn txn(db_.pager());
  AttrMap attrs;
  attrs.SetString(kAttrSummary, std::string(summary));
  attrs.SetInt(kAttrTime, time);
  BP_ASSIGN_OR_RETURN(
      NodeId form,
      graph_->AddNode(
          static_cast<uint32_t>(NodeKind::kFormSubmission), attrs));
  if (from_visit != 0) {
    BP_RETURN_IF_ERROR(
        graph_
            ->AddEdge(from_visit, form,
                      static_cast<uint32_t>(EdgeKind::kFormFrom), {})
            .status());
  }
  BP_RETURN_IF_ERROR(txn.Commit());
  return form;
}

Status ProvStore::LinkFormResult(NodeId form, NodeId results_visit) {
  BP_REQUIRE(!snapshot_bound(), "LinkFormResult on a snapshot-bound store");
  return graph_
      ->AddEdge(form, results_visit,
                static_cast<uint32_t>(EdgeKind::kFormResult), {})
      .status();
}

Result<NodeId> ProvStore::PageForUrl(std::string_view url) const {
  Index index(url_index_);
  BP_ASSIGN_OR_RETURN(NodeId found, index.FirstEqual(url));
  if (found == 0) return Status::NotFound("no page node for url");
  return found;
}

Result<NodeId> ProvStore::TermForQuery(std::string_view query) const {
  Index index(term_index_);
  BP_ASSIGN_OR_RETURN(NodeId found, index.FirstEqual(query));
  if (found == 0) return Status::NotFound("no term node for query");
  return found;
}

Result<NodeId> ProvStore::PageOfView(NodeId view,
                                     graph::QueryStats* stats) const {
  if (options_.policy == VersionPolicy::kTimestampEdges) return view;
  graph::EdgeCursor cur =
      graph_->Edges(view, Direction::kOut, stats);
  for (; cur.Valid(); cur.Next()) {
    if (cur.edge().kind() == static_cast<uint32_t>(EdgeKind::kInstanceOf)) {
      return cur.edge().dst();
    }
  }
  BP_RETURN_IF_ERROR(cur.status());
  return Status::NotFound("view has no canonical page");
}

Result<std::vector<NodeId>> ProvStore::ViewsOfPage(
    NodeId page, graph::QueryStats* stats) const {
  if (options_.policy == VersionPolicy::kTimestampEdges) {
    return std::vector<NodeId>{page};
  }
  std::vector<NodeId> views;
  graph::EdgeCursor cur = graph_->Edges(page, Direction::kIn, stats);
  for (; cur.Valid(); cur.Next()) {
    if (cur.edge().kind() == static_cast<uint32_t>(EdgeKind::kInstanceOf)) {
      views.push_back(cur.edge().src());
    }
  }
  BP_RETURN_IF_ERROR(cur.status());
  return views;
}

Result<const graph::IntervalIndex*> ProvStore::VisitIntervals(
    graph::QueryStats* stats) {
  if (options_.policy != VersionPolicy::kVersionNodes) {
    return Status::FailedPrecondition(
        "visit intervals require the node-versioning policy (section 3.1: "
        "edge timestamping keeps no per-visit open/close state)");
  }
  // The committed state this handle reads: its snapshot's sequence, or
  // the pager's last commit for the live store. None while the live
  // store is inside a write transaction, whose pages it also reads.
  std::optional<uint64_t> state;
  if (snapshot_bound()) {
    state = snapshot_seq_;
  } else if (!db_.pager().InTransaction()) {
    state = db_.pager().commit_seq();
  }
  if (state.has_value()) {
    if (intervals_ != nullptr && intervals_seq_ == state) {
      return intervals_.get();
    }
    util::MutexLock lock(interval_cache_->mu);
    if (interval_cache_->index != nullptr && interval_cache_->seq == *state) {
      intervals_ = interval_cache_->index;
      intervals_seq_ = state;
      return intervals_.get();
    }
  }
  // Build outside the lock: the scan reads every node.
  std::vector<graph::IntervalIndex::Entry> entries;
  graph::NodeCursor cur = graph_->Nodes(1, stats);
  for (; cur.Valid(); cur.Next()) {
    if (cur.node().kind() != static_cast<uint32_t>(NodeKind::kVisit)) {
      continue;
    }
    BP_ASSIGN_OR_RETURN(graph::AttrMap attrs, cur.node().attrs());
    util::TimeSpan span;
    span.open = attrs.IntOr(kAttrOpen, 0);
    span.close = attrs.IntOr(kAttrClose, util::kTimeMax);
    entries.push_back({span, cur.node().id()});
  }
  BP_RETURN_IF_ERROR(cur.status());
  auto built = std::make_shared<const graph::IntervalIndex>(std::move(entries));
  interval_cache_->builds.fetch_add(1, std::memory_order_relaxed);
  if (state.has_value()) {
    util::MutexLock lock(interval_cache_->mu);
    if (interval_cache_->index == nullptr || *state > interval_cache_->seq) {
      interval_cache_->index = built;
      interval_cache_->seq = *state;
    }
  }
  intervals_ = std::move(built);
  intervals_seq_ = state;
  return intervals_.get();
}

Result<bool> ProvStore::CheckInvariants() const {
  // Integrity audit, so decode EVERY edge's attributes — the cursor
  // read path skips attr decode by design, which would otherwise let a
  // corrupt attr section hide behind a valid varint prefix. Edge
  // policy additionally requires a timestamp on every navigation edge
  // (logical acyclicity comes from time-respecting traversal).
  graph::EdgeCursor cur = graph_->Edges();
  for (; cur.Valid(); cur.Next()) {
    BP_ASSIGN_OR_RETURN(graph::AttrMap attrs, cur.edge().attrs());
    if (options_.policy == VersionPolicy::kTimestampEdges &&
        IsNavigationEdge(static_cast<EdgeKind>(cur.edge().kind())) &&
        !attrs.GetInt(kAttrTime).has_value()) {
      return false;
    }
  }
  BP_RETURN_IF_ERROR(cur.status());
  if (options_.policy == VersionPolicy::kVersionNodes) {
    return graph::IsAcyclic(*graph_);
  }
  return true;
}

}  // namespace bp::prov
