// Persistent inverted index with BM25 / TF-IDF ranking.
//
// This is the textual history-search baseline ("a browser with textual
// history search will return the web search page for rosebud, because
// that page contains the search term in both its title and URL") that
// the provenance-aware algorithms rerank and augment.
//
// Layout (namespaced trees in the shared Db):
//   <ns>.terms : term -> postings blob (varint count, then per entry:
//                delta-varint doc id, varint term frequency)
//   <ns>.docs  : big-endian doc id -> varint token count
//   <ns>.meta  : "stats" -> (varint total docs, varint total tokens,
//                varint watermark)
//
// The watermark is the caller's high mark over document ids: every id at
// or below it has been handed to the index (HistorySearcher uses the
// highest graph node id it has scanned). Flush writes it in the same
// transaction as the postings it covers, so a crash keeps both or loses
// both, and a reopened caller resumes exactly where the durable index
// ends instead of re-adding (and so double-counting) its whole history.
// A record written by an older build has only the first two fields; the
// live handle then derives the mark from the highest <ns>.docs key (every
// indexed document has a docs entry, even one with no tokens, and
// flushes cover contiguous id ranges) and the next Flush persists it.
//
// Writes buffer in memory and merge into the trees on Flush() (documents
// arrive one page visit at a time, but terms repeat heavily; buffering
// turns O(tokens) read-modify-writes into one merge per distinct term).
// Queries flush implicitly. Documents are append-only, matching browser
// history; there is no document deletion.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/db.hpp"
#include "util/status.hpp"

namespace bp::text {

using DocId = uint64_t;

struct Posting {
  DocId doc = 0;
  uint32_t tf = 0;
};

struct ScoredDoc {
  DocId doc = 0;
  double score = 0.0;
};

struct Bm25Params {
  double k1 = 1.2;
  double b = 0.75;
};

class InvertedIndex {
 public:
  // Opens (creating if needed) the index named `ns` inside `db`.
  static util::Result<std::unique_ptr<InvertedIndex>> Open(storage::Db& db,
                                                           std::string ns);

  // A read-only handle on the same index whose postings, document
  // lengths, and BM25 corpus stats all resolve through `snap` — the
  // snapshot-isolated search path. Documents buffered but not yet
  // Flush()ed at snapshot time are invisible (flush before snapshotting
  // to make them searchable); AddDocument/Flush on the returned handle
  // are contract violations. `snap` must outlive the handle.
  util::Result<std::unique_ptr<InvertedIndex>> AtSnapshot(
      const storage::Snapshot& snap) const;
  bool snapshot_bound() const { return bound_trees_.bound(); }

  // Indexes a document's tokens (use text::Tokenize). A document id must
  // be added at most once; re-adding merges term frequencies.
  util::Status AddDocument(DocId doc, const std::vector<std::string>& tokens);

  // Merges buffered postings into the persistent trees, together with
  // the corpus stats and the watermark, in one transaction. A failed
  // Flush leaves the buffer, the stats and the watermark as they were,
  // so it can simply be retried.
  util::Status Flush();

  // The caller's high mark (see the layout comment): covers everything
  // added so far, flushed or still buffered. AdvanceWatermark raises it
  // (it never moves down); the next Flush persists it even when no
  // document arrived with it.
  uint64_t watermark() const { return watermark_; }
  void AdvanceWatermark(uint64_t mark);

  // BM25-ranked disjunctive (OR) search over the query tokens. Returns up
  // to `k` documents, highest score first (ties by doc id).
  util::Result<std::vector<ScoredDoc>> Search(
      const std::vector<std::string>& query_tokens, size_t k);

  // Raw postings access (flushes first). `fn` returns false to stop.
  util::Status ForEachPosting(std::string_view term,
                              const std::function<bool(const Posting&)>& fn);

  // Number of documents containing `term` (flushes first).
  util::Result<uint64_t> DocumentFrequency(std::string_view term);

  util::Result<uint64_t> DocumentCount();

  // Sum of all document lengths, the BM25 average-length numerator.
  util::Result<uint64_t> TotalTokens();

  // Inverse document frequency under BM25+1 smoothing; 0 for unseen terms.
  util::Result<double> Idf(std::string_view term);

  Bm25Params& params() { return params_; }

 private:
  InvertedIndex(storage::Db& db, std::string ns)
      : db_(db), ns_(std::move(ns)) {}

  util::Status LoadStats();
  // A term's decoded postings; empty for an unseen term.
  util::Result<std::vector<Posting>> LoadPostings(std::string_view term) const;
  double IdfFor(uint64_t df) const;

  storage::Db& db_;
  std::string ns_;
  storage::BTree* terms_tree_ = nullptr;
  storage::BTree* docs_tree_ = nullptr;
  storage::BTree* meta_tree_ = nullptr;
  // Snapshot-bound handles (AtSnapshot): the tree pointers above point
  // into this owned storage instead of the Db's live handles.
  storage::BoundTrees bound_trees_;

  // Buffered, not yet flushed: term -> postings (sorted by doc at flush).
  std::map<std::string, std::vector<Posting>, std::less<>> pending_;
  std::map<DocId, uint64_t> pending_doc_lengths_;

  uint64_t total_docs_ = 0;
  uint64_t total_tokens_ = 0;
  uint64_t watermark_ = 0;
  // The mark the stored "stats" record carries (0 when it has none);
  // Flush has work to do while it lags watermark_.
  uint64_t durable_watermark_ = 0;
  Bm25Params params_;
};

}  // namespace bp::text
