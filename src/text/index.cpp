#include "text/index.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "storage/compress.hpp"
#include "storage/pager.hpp"
#include "util/require.hpp"
#include "util/serde.hpp"
#include "util/strings.hpp"

namespace bp::text {

using storage::AutoTxn;
using util::OrderedKeyU64;
using util::Reader;
using util::Result;
using util::Status;
using util::Writer;

namespace {

const std::string kStatsKey = "stats";

// Postings blobs are delta+varint pairs: doc ids (sorted) as gaps, tf
// verbatim. The byte format lives in storage::compress so the storage
// diet shares one hardened integer codec; it is byte-identical to the
// hand-rolled encoding earlier revisions wrote, so existing databases
// read back unchanged.
std::string EncodePostings(const std::vector<Posting>& postings) {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  pairs.reserve(postings.size());
  for (const Posting& p : postings) pairs.emplace_back(p.doc, p.tf);
  return storage::compress::EncodeDeltaPairs(pairs);
}

Result<std::vector<Posting>> DecodePostings(std::string_view blob) {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  BP_RETURN_IF_ERROR(storage::compress::DecodeDeltaPairs(blob, &pairs));
  std::vector<Posting> postings;
  postings.reserve(pairs.size());
  for (const auto& [doc, tf] : pairs) {
    postings.push_back(Posting{doc, static_cast<uint32_t>(tf)});
  }
  return postings;
}

// Merge-add: both inputs sorted by doc; same doc sums tf.
std::vector<Posting> MergePostings(const std::vector<Posting>& a,
                                   const std::vector<Posting>& b) {
  std::vector<Posting> out;
  out.reserve(a.size() + b.size());
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() || (i < a.size() && a[i].doc < b[j].doc)) {
      out.push_back(a[i++]);
    } else if (i >= a.size() || b[j].doc < a[i].doc) {
      out.push_back(b[j++]);
    } else {
      out.push_back(Posting{a[i].doc, a[i].tf + b[j].tf});
      ++i;
      ++j;
    }
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<InvertedIndex>> InvertedIndex::Open(storage::Db& db,
                                                           std::string ns) {
  std::unique_ptr<InvertedIndex> index(
      new InvertedIndex(db, std::move(ns)));
  BP_ASSIGN_OR_RETURN(index->terms_tree_,
                      db.OpenOrCreateTree(index->ns_ + ".terms"));
  BP_ASSIGN_OR_RETURN(index->docs_tree_,
                      db.OpenOrCreateTree(index->ns_ + ".docs"));
  BP_ASSIGN_OR_RETURN(index->meta_tree_,
                      db.OpenOrCreateTree(index->ns_ + ".meta"));
  BP_RETURN_IF_ERROR(index->LoadStats());
  return index;
}

Result<std::unique_ptr<InvertedIndex>> InvertedIndex::AtSnapshot(
    const storage::Snapshot& snap) const {
  std::unique_ptr<InvertedIndex> view(new InvertedIndex(db_, ns_));
  view->terms_tree_ = view->bound_trees_.Bind(snap, terms_tree_);
  view->docs_tree_ = view->bound_trees_.Bind(snap, docs_tree_);
  view->meta_tree_ = view->bound_trees_.Bind(snap, meta_tree_);
  view->params_ = params_;
  // Corpus stats come from the snapshot's meta tree, NOT the live
  // cached members — the writer updates those concurrently.
  BP_RETURN_IF_ERROR(view->LoadStats());
  return view;
}

Status InvertedIndex::LoadStats() {
  auto blob = meta_tree_->Get(kStatsKey);
  bool has_mark = false;
  if (blob.ok()) {
    Reader r(*blob);
    total_docs_ = r.ReadVarint64();
    total_tokens_ = r.ReadVarint64();
    has_mark = !r.AtEnd();
    if (has_mark) durable_watermark_ = r.ReadVarint64();
    BP_RETURN_IF_ERROR(r.Finish());
  } else if (!blob.status().IsNotFound()) {
    return blob.status();
  }
  watermark_ = durable_watermark_;
  // A record from an older build (or none yet): the highest docs key is
  // the mark. Snapshot views never index, so only the live handle pays
  // for the scan, and only until its next Flush persists the mark.
  if (!has_mark && !snapshot_bound()) {
    BP_RETURN_IF_ERROR(
        docs_tree_->ForEach([&](std::string_view key, std::string_view) {
          watermark_ = util::DecodeOrderedKeyU64(key);
          return true;
        }));
  }
  return Status::Ok();
}

void InvertedIndex::AdvanceWatermark(uint64_t mark) {
  BP_REQUIRE(!snapshot_bound(), "AdvanceWatermark on a snapshot-bound index");
  watermark_ = std::max(watermark_, mark);
}

Result<std::vector<Posting>> InvertedIndex::LoadPostings(
    std::string_view term) const {
  auto blob = terms_tree_->Get(term);
  if (!blob.ok()) {
    if (blob.status().IsNotFound()) return std::vector<Posting>{};
    return blob.status();
  }
  return DecodePostings(*blob);
}

Status InvertedIndex::AddDocument(DocId doc,
                                  const std::vector<std::string>& tokens) {
  BP_REQUIRE(!snapshot_bound(), "AddDocument on a snapshot-bound index");
  BP_REQUIRE(doc != 0, "doc id 0 is reserved");
  std::unordered_map<std::string_view, uint32_t> counts;
  for (const std::string& token : tokens) ++counts[token];
  for (const auto& [term, tf] : counts) {
    auto it = pending_.find(term);
    if (it == pending_.end()) {
      it = pending_.emplace(std::string(term), std::vector<Posting>{}).first;
    }
    it->second.push_back(Posting{doc, tf});
  }
  pending_doc_lengths_[doc] += tokens.size();
  return Status::Ok();
}

Status InvertedIndex::Flush() {
  // Bound handles have nothing pending by construction (AddDocument is
  // rejected), so the implicit Flush in every query is a no-op there.
  if (pending_.empty() && pending_doc_lengths_.empty() &&
      watermark_ == durable_watermark_) {
    return Status::Ok();
  }
  // Index writes ride the text write domain: with partitioned domains
  // their WAL frames land on stream 1, so an index refresh's fsync can
  // overlap the ingest committer's fsync on stream 0 (single-domain
  // pagers route this back to domain 0; see Pager::Begin).
  AutoTxn txn(db_.pager(), storage::kTextDomain);

  for (auto& [term, postings] : pending_) {
    std::sort(postings.begin(), postings.end(),
              [](const Posting& a, const Posting& b) {
                return a.doc < b.doc;
              });
    // Collapse duplicate docs within the buffer.
    std::vector<Posting> merged_buffer;
    for (const Posting& p : postings) {
      if (!merged_buffer.empty() && merged_buffer.back().doc == p.doc) {
        merged_buffer.back().tf += p.tf;
      } else {
        merged_buffer.push_back(p);
      }
    }
    BP_ASSIGN_OR_RETURN(std::vector<Posting> existing, LoadPostings(term));
    std::vector<Posting> merged = MergePostings(existing, merged_buffer);
    BP_RETURN_IF_ERROR(terms_tree_->Put(term, EncodePostings(merged)));
  }

  // The stats advance only once the transaction commits, so a failed
  // Flush can be retried without counting its documents twice.
  uint64_t total_docs = total_docs_;
  uint64_t total_tokens = total_tokens_;
  for (const auto& [doc, length] : pending_doc_lengths_) {
    uint64_t stored = 0;
    auto blob = docs_tree_->Get(OrderedKeyU64(doc));
    if (blob.ok()) {
      Reader r(*blob);
      stored = r.ReadVarint64();
      BP_RETURN_IF_ERROR(r.Finish());
    } else if (blob.status().IsNotFound()) {
      ++total_docs;
    } else {
      return blob.status();
    }
    Writer w;
    w.PutVarint64(stored + length);
    BP_RETURN_IF_ERROR(docs_tree_->Put(OrderedKeyU64(doc), w.data()));
    total_tokens += length;
  }

  Writer stats;
  stats.PutVarint64(total_docs);
  stats.PutVarint64(total_tokens);
  stats.PutVarint64(watermark_);
  BP_RETURN_IF_ERROR(meta_tree_->Put(kStatsKey, stats.data()));
  BP_RETURN_IF_ERROR(txn.Commit());
  total_docs_ = total_docs;
  total_tokens_ = total_tokens;
  durable_watermark_ = watermark_;
  pending_.clear();
  pending_doc_lengths_.clear();
  return Status::Ok();
}

Status InvertedIndex::ForEachPosting(
    std::string_view term, const std::function<bool(const Posting&)>& fn) {
  BP_RETURN_IF_ERROR(Flush());
  BP_ASSIGN_OR_RETURN(std::vector<Posting> postings, LoadPostings(term));
  for (const Posting& p : postings) {
    if (!fn(p)) break;
  }
  return Status::Ok();
}

Result<uint64_t> InvertedIndex::DocumentFrequency(std::string_view term) {
  BP_RETURN_IF_ERROR(Flush());
  auto blob = terms_tree_->Get(term);
  if (!blob.ok()) {
    if (blob.status().IsNotFound()) return uint64_t{0};
    return blob.status();
  }
  Reader r(*blob);
  return r.ReadVarint64();
}

Result<uint64_t> InvertedIndex::DocumentCount() {
  BP_RETURN_IF_ERROR(Flush());
  return total_docs_;
}

Result<uint64_t> InvertedIndex::TotalTokens() {
  BP_RETURN_IF_ERROR(Flush());
  return total_tokens_;
}

Result<double> InvertedIndex::Idf(std::string_view term) {
  BP_ASSIGN_OR_RETURN(uint64_t df, DocumentFrequency(term));
  return IdfFor(df);
}

double InvertedIndex::IdfFor(uint64_t df) const {
  if (df == 0 || total_docs_ == 0) return 0.0;
  double n = static_cast<double>(total_docs_);
  double d = static_cast<double>(df);
  return std::log((n - d + 0.5) / (d + 0.5) + 1.0);
}

Result<std::vector<ScoredDoc>> InvertedIndex::Search(
    const std::vector<std::string>& query_tokens, size_t k) {
  BP_RETURN_IF_ERROR(Flush());
  if (total_docs_ == 0 || query_tokens.empty() || k == 0) {
    return std::vector<ScoredDoc>{};
  }
  const double avg_len =
      static_cast<double>(total_tokens_) / static_cast<double>(total_docs_);

  // Deduplicate query terms; repeated query terms add their weight once
  // per occurrence (standard bag-of-words query).
  std::unordered_map<std::string_view, uint32_t> query_counts;
  for (const std::string& t : query_tokens) ++query_counts[t];

  std::unordered_map<DocId, double> scores;
  std::unordered_map<DocId, double> doc_len_cache;
  // One postings fetch per query term: the decoded count is the
  // document frequency.
  for (const auto& [term, qtf] : query_counts) {
    BP_ASSIGN_OR_RETURN(std::vector<Posting> postings, LoadPostings(term));
    const double idf = IdfFor(postings.size());
    if (idf <= 0.0) continue;
    for (const Posting& p : postings) {
      auto it = doc_len_cache.find(p.doc);
      if (it == doc_len_cache.end()) {
        double len = avg_len;
        auto blob = docs_tree_->Get(OrderedKeyU64(p.doc));
        if (blob.ok()) {
          Reader r(*blob);
          len = static_cast<double>(r.ReadVarint64());
        }
        it = doc_len_cache.emplace(p.doc, len).first;
      }
      const double tf = static_cast<double>(p.tf);
      const double norm =
          params_.k1 * (1.0 - params_.b + params_.b * it->second / avg_len);
      scores[p.doc] +=
          qtf * idf * (tf * (params_.k1 + 1.0)) / (tf + norm);
    }
  }

  std::vector<ScoredDoc> ranked;
  ranked.reserve(scores.size());
  for (const auto& [doc, score] : scores) {
    ranked.push_back(ScoredDoc{doc, score});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const ScoredDoc& a, const ScoredDoc& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

}  // namespace bp::text
