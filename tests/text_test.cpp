// Tests for bp::text: tokenizer behaviour and the persistent inverted
// index (postings round-trips, BM25 ranking properties, flush semantics).
#include <gtest/gtest.h>

#include <algorithm>

#include "storage/env.hpp"
#include "text/index.hpp"
#include "text/tokenizer.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace bp::text {
namespace {

using storage::DbOptions;
using storage::MemEnv;

// ---------------------------------------------------------- tokenizer

TEST(TokenizerTest, LowercasesAndSplits) {
  EXPECT_EQ(Tokenize("Citizen Kane (1941)"),
            (std::vector<std::string>{"citizen", "kane", "1941"}));
}

TEST(TokenizerTest, DropsStopwordsAndShortTokens) {
  EXPECT_EQ(Tokenize("the rose and a bud"),
            (std::vector<std::string>{"rose", "bud"}));
}

TEST(TokenizerTest, BreaksUrlsIntoComponents) {
  auto tokens = Tokenize("https://www.wine-shop.com/bottles/pinot?q=noir");
  // http/https/www/com are stopworded; meaningful parts remain.
  EXPECT_EQ(tokens, (std::vector<std::string>{"wine", "shop", "bottles",
                                              "pinot", "noir"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("... --- !!!").empty());
}

TEST(TokenizerTest, KeepsDuplicates) {
  EXPECT_EQ(Tokenize("wine wine wine").size(), 3u);
}

TEST(TokenizerTest, TermCountsAggregates) {
  auto counts = TermCounts("rosebud rosebud sled");
  EXPECT_EQ(counts["rosebud"], 2u);
  EXPECT_EQ(counts["sled"], 1u);
}

TEST(TokenizerTest, IsStopword) {
  EXPECT_TRUE(IsStopword("the"));
  EXPECT_TRUE(IsStopword("http"));
  EXPECT_FALSE(IsStopword("rosebud"));
}

// -------------------------------------------------------------- index

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DbOptions opts;
    opts.env = &env_;
    auto db = storage::Db::Open("t.db", opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto index = InvertedIndex::Open(*db_, "hist");
    ASSERT_TRUE(index.ok());
    index_ = std::move(*index);
  }

  void Add(DocId doc, std::string_view content) {
    ASSERT_TRUE(index_->AddDocument(doc, Tokenize(content)).ok());
  }

  std::vector<DocId> SearchDocs(std::string_view query, size_t k = 10) {
    auto results = index_->Search(Tokenize(query), k);
    EXPECT_TRUE(results.ok());
    std::vector<DocId> docs;
    for (const auto& r : *results) docs.push_back(r.doc);
    return docs;
  }

  MemEnv env_;
  std::unique_ptr<storage::Db> db_;
  std::unique_ptr<InvertedIndex> index_;
};

TEST_F(IndexTest, FindsDocumentsByTerm) {
  Add(1, "rosebud sled mystery");
  Add(2, "rose garden flowers");
  Add(3, "citizen kane movie");
  auto docs = SearchDocs("rosebud");
  EXPECT_EQ(docs, (std::vector<DocId>{1}));
  EXPECT_TRUE(SearchDocs("absent").empty());
}

TEST_F(IndexTest, RanksHigherTfFirst) {
  Add(1, "wine wine wine bottles");
  Add(2, "wine article about many other topics entirely unrelated");
  auto docs = SearchDocs("wine");
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(docs[0], 1u);
}

TEST_F(IndexTest, IdfFavorsRareTerms) {
  // "common" in all docs, "rare" in one; doc 3 has both.
  Add(1, "common alpha");
  Add(2, "common beta");
  Add(3, "common rare");
  Add(4, "common gamma");
  auto docs = SearchDocs("common rare");
  ASSERT_FALSE(docs.empty());
  EXPECT_EQ(docs[0], 3u);
  auto idf_rare = index_->Idf("rare");
  auto idf_common = index_->Idf("common");
  ASSERT_TRUE(idf_rare.ok() && idf_common.ok());
  EXPECT_GT(*idf_rare, *idf_common);
}

TEST_F(IndexTest, DisjunctiveAcrossTerms) {
  Add(1, "apples oranges");
  Add(2, "oranges pears");
  Add(3, "grapes");
  auto docs = SearchDocs("apples pears", 10);
  std::sort(docs.begin(), docs.end());
  EXPECT_EQ(docs, (std::vector<DocId>{1, 2}));
}

TEST_F(IndexTest, TopKLimit) {
  for (DocId d = 1; d <= 20; ++d) {
    Add(d, "shared term document");
  }
  EXPECT_EQ(SearchDocs("shared", 5).size(), 5u);
}

TEST_F(IndexTest, DocumentFrequencyAndCount) {
  Add(1, "xx yy");
  Add(2, "xx zz");
  EXPECT_EQ(*index_->DocumentFrequency("xx"), 2u);
  EXPECT_EQ(*index_->DocumentFrequency("yy"), 1u);
  EXPECT_EQ(*index_->DocumentFrequency("nope"), 0u);
  EXPECT_EQ(*index_->DocumentCount(), 2u);
}

TEST_F(IndexTest, PostingsIterationSortedByDoc) {
  Add(5, "term");
  Add(2, "term");
  Add(9, "term term");
  std::vector<Posting> postings;
  ASSERT_TRUE(index_
                  ->ForEachPosting("term",
                                   [&](const Posting& p) {
                                     postings.push_back(p);
                                     return true;
                                   })
                  .ok());
  ASSERT_EQ(postings.size(), 3u);
  EXPECT_EQ(postings[0].doc, 2u);
  EXPECT_EQ(postings[1].doc, 5u);
  EXPECT_EQ(postings[2].doc, 9u);
  EXPECT_EQ(postings[2].tf, 2u);
}

TEST_F(IndexTest, ReAddingDocMergesTf) {
  Add(1, "wine");
  ASSERT_TRUE(index_->Flush().ok());
  Add(1, "wine cellar");
  std::vector<Posting> postings;
  ASSERT_TRUE(index_
                  ->ForEachPosting("wine",
                                   [&](const Posting& p) {
                                     postings.push_back(p);
                                     return true;
                                   })
                  .ok());
  ASSERT_EQ(postings.size(), 1u);
  EXPECT_EQ(postings[0].tf, 2u);
  EXPECT_EQ(*index_->DocumentCount(), 1u);  // same doc, not a new one
}

TEST_F(IndexTest, PersistsAcrossReopen) {
  Add(1, "durable data");
  ASSERT_TRUE(index_->Flush().ok());
  index_.reset();
  db_.reset();

  DbOptions opts;
  opts.env = &env_;
  auto db = storage::Db::Open("t.db", opts);
  ASSERT_TRUE(db.ok());
  auto index = InvertedIndex::Open(**db, "hist");
  ASSERT_TRUE(index.ok());
  auto results = (*index)->Search({"durable"}, 10);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].doc, 1u);
  EXPECT_EQ(*(*index)->DocumentCount(), 1u);
}

TEST_F(IndexTest, SearchScoresAreExactBm25) {
  // One postings fetch per query term must score exactly as the
  // per-term Idf() + document-length formula: compared bit for bit.
  const std::vector<std::string> docs = {
      "wine wine cellar", "wine tasting notes on long trips", "cellar door",
      "unrelated words only"};
  std::vector<double> lens;
  uint64_t total = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    Add(i + 1, docs[i]);
    lens.push_back(static_cast<double>(Tokenize(docs[i]).size()));
    total += Tokenize(docs[i]).size();
  }
  const double avg_len = static_cast<double>(total) / 4.0;
  const Bm25Params params = index_->params();
  auto bm25 = [&](const char* term, double tf, double len) {
    const double idf = *index_->Idf(term);
    const double norm =
        params.k1 * (1.0 - params.b + params.b * len / avg_len);
    return 1.0 * idf * (tf * (params.k1 + 1.0)) / (tf + norm);
  };
  ASSERT_EQ(*index_->TotalTokens(), total);
  ASSERT_EQ(*index_->DocumentCount(), 4u);

  auto wine = index_->Search({"wine"}, 10);
  ASSERT_TRUE(wine.ok());
  ASSERT_EQ(wine->size(), 2u);
  EXPECT_EQ((*wine)[0].doc, 1u);
  EXPECT_EQ((*wine)[0].score, bm25("wine", 2.0, lens[0]));
  EXPECT_EQ((*wine)[1].doc, 2u);
  EXPECT_EQ((*wine)[1].score, bm25("wine", 1.0, lens[1]));

  // Terms that share no document: each score is one term's weight.
  auto mixed = index_->Search({"door", "tasting"}, 10);
  ASSERT_TRUE(mixed.ok());
  ASSERT_EQ(mixed->size(), 2u);
  for (const ScoredDoc& hit : *mixed) {
    if (hit.doc == 3) {
      EXPECT_EQ(hit.score, bm25("door", 1.0, lens[2]));
    } else {
      EXPECT_EQ(hit.doc, 2u);
      EXPECT_EQ(hit.score, bm25("tasting", 1.0, lens[1]));
    }
  }
}

TEST_F(IndexTest, WatermarkPersistsWithThePostings) {
  EXPECT_EQ(index_->watermark(), 0u);
  Add(3, "first batch");
  index_->AdvanceWatermark(5);
  index_->AdvanceWatermark(4);  // never moves down
  EXPECT_EQ(index_->watermark(), 5u);
  ASSERT_TRUE(index_->Flush().ok());
  // A mark with no documents behind it still commits on Flush, and a
  // Flush with nothing new commits nothing.
  index_->AdvanceWatermark(9);
  uint64_t commits = db_->pager().stats().commits;
  ASSERT_TRUE(index_->Flush().ok());
  EXPECT_EQ(db_->pager().stats().commits, commits + 1);
  ASSERT_TRUE(index_->Flush().ok());
  EXPECT_EQ(db_->pager().stats().commits, commits + 1);
  index_.reset();
  auto index = InvertedIndex::Open(*db_, "hist");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->watermark(), 9u);
  EXPECT_EQ(*(*index)->DocumentCount(), 1u);
  EXPECT_EQ(*(*index)->TotalTokens(), 2u);
}

TEST_F(IndexTest, UnflushedWatermarkIsLostWithItsDocuments) {
  Add(1, "kept");
  index_->AdvanceWatermark(1);
  ASSERT_TRUE(index_->Flush().ok());
  Add(2, "dropped");
  index_->AdvanceWatermark(2);
  index_.reset();  // closed without a Flush: the tail was never durable
  auto index = InvertedIndex::Open(*db_, "hist");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->watermark(), 1u);
  EXPECT_EQ(*(*index)->DocumentCount(), 1u);
  EXPECT_EQ(*(*index)->DocumentFrequency("dropped"), 0u);
}

TEST_F(IndexTest, LegacyStatsRecordDerivesWatermarkFromDocs) {
  // Two-field record from an older build: the mark is the highest docs
  // key, including a document that had no tokens at all.
  Add(2, "alpha beta");
  Add(7, "");
  ASSERT_TRUE(index_->Flush().ok());
  util::Writer legacy;
  legacy.PutVarint64(2);  // total docs
  legacy.PutVarint64(2);  // total tokens
  ASSERT_TRUE((*db_->OpenTree("hist.meta"))->Put("stats", legacy.data()).ok());
  index_.reset();

  auto index = InvertedIndex::Open(*db_, "hist");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->watermark(), 7u);
  EXPECT_EQ(*(*index)->TotalTokens(), 2u);
  // Persisted by the next Flush, which has the mark as its only news.
  ASSERT_TRUE((*index)->Flush().ok());
  auto blob = (*db_->OpenTree("hist.meta"))->Get("stats");
  ASSERT_TRUE(blob.ok());
  util::Reader r(*blob);
  EXPECT_EQ(r.ReadVarint64(), 2u);
  EXPECT_EQ(r.ReadVarint64(), 2u);
  EXPECT_EQ(r.ReadVarint64(), 7u);
  EXPECT_TRUE(r.Finish().ok());
}

TEST_F(IndexTest, LargePostingsListSurvivesOverflowPages) {
  // Enough postings for one term to exceed an inline cell (forces the
  // B+tree overflow path under the index).
  for (DocId d = 1; d <= 3000; ++d) {
    ASSERT_TRUE(index_->AddDocument(d, {"hot"}).ok());
  }
  EXPECT_EQ(*index_->DocumentFrequency("hot"), 3000u);
  uint64_t seen = 0;
  DocId prev = 0;
  ASSERT_TRUE(index_
                  ->ForEachPosting("hot",
                                   [&](const Posting& p) {
                                     EXPECT_GT(p.doc, prev);
                                     prev = p.doc;
                                     ++seen;
                                     return true;
                                   })
                  .ok());
  EXPECT_EQ(seen, 3000u);
}

TEST_F(IndexTest, EmptyQueryAndZeroK) {
  Add(1, "something");
  EXPECT_TRUE(SearchDocs("", 10).empty());
  EXPECT_TRUE(SearchDocs("something", 0).empty());
}

TEST_F(IndexTest, RejectsReservedDocId) {
  EXPECT_THROW((void)index_->AddDocument(0, {"x"}), std::logic_error);
}

TEST_F(IndexTest, CorruptPostingCountIsRejectedNotAllocated) {
  // A flipped byte in the posting-count varint must surface as
  // Corruption, not as a reserve() of 2^60 entries: the count is only
  // trusted once the payload could plausibly back it (>= 2 bytes per
  // posting).
  Add(1, "rosebud");
  ASSERT_TRUE(index_->Flush().ok());
  storage::BTree* terms = *db_->OpenTree("hist.terms");
  util::Writer evil;
  evil.PutVarint64(uint64_t{1} << 60);  // count: ~10^18 postings
  evil.PutVarint64(1);                  // one lonely byte of payload
  ASSERT_TRUE(terms->Put("evil", evil.data()).ok());

  util::Status decoded = index_->ForEachPosting(
      "evil", [](const Posting&) { return true; });
  EXPECT_EQ(decoded.code(), util::StatusCode::kCorruption);
}

TEST_F(IndexTest, TruncatedPostingPayloadIsCorruption) {
  // Count says three postings, payload carries one and a half: the
  // decoder must report Corruption instead of fabricating entries from
  // a failed reader.
  storage::BTree* terms = *db_->OpenTree("hist.terms");
  util::Writer torn;
  torn.PutVarint64(3);  // count
  torn.PutVarint64(5);  // doc delta
  torn.PutVarint64(2);  // tf — then nothing for postings 2 and 3
  ASSERT_TRUE(terms->Put("torn", torn.data()).ok());

  util::Status decoded = index_->ForEachPosting(
      "torn", [](const Posting&) { return true; });
  EXPECT_EQ(decoded.code(), util::StatusCode::kCorruption);
}

}  // namespace
}  // namespace bp::text
