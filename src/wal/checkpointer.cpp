#include "wal/checkpointer.hpp"

#include <map>

#include "util/serde.hpp"

namespace bp::wal {

using storage::File;
using storage::kPageSize;
using storage::PageId;
using storage::compress::CompressionOptions;
using util::Result;
using util::Status;

namespace {

// Writes one committed page image into its main-file slot, compressed
// when the policy allows. Page 0 (the header) is always written raw:
// Open reads it before any frame decoder is in play. Compressed frames
// are zero-padded to the slot — the file stays a kPageSize array (and
// refolding identical images rewrites byte-identical slots, keeping
// folds idempotent); the saved bytes are the hole-punchable tail,
// tracked in the result counters.
Status WriteImage(File* db_file, PageId id, const std::string& image,
                  const CompressionOptions& compression,
                  CheckpointResult* result) {
  if (id != 0 && compression.enabled()) {
    std::string frame = storage::compress::MaybeCompressPage(compression,
                                                             image);
    if (!frame.empty()) {
      ++result->pages_compressed;
      result->compressed_bytes += frame.size();
      result->raw_bytes_replaced += image.size();
      frame.resize(kPageSize, '\0');
      BP_RETURN_IF_ERROR(db_file->Write(uint64_t{id} * kPageSize, frame));
      ++result->pages_folded;
      result->bytes_written += frame.size();
      return Status::Ok();
    }
  }
  BP_RETURN_IF_ERROR(db_file->Write(uint64_t{id} * kPageSize, image));
  ++result->pages_folded;
  result->bytes_written += image.size();
  return Status::Ok();
}

}  // namespace

Result<CheckpointResult> Checkpointer::FoldStreams(
    Env* env, File* db_file, const std::vector<std::string>& stream_paths,
    bool sync, const CompressionOptions& compression) {
  CheckpointResult result;

  std::vector<WalContents> streams;
  for (const auto& path : stream_paths) {
    auto contents = WalReader::ReadCommitted(env, path);
    if (!contents.ok()) {
      if (contents.status().IsNotFound()) continue;  // stream never created
      return contents.status();
    }
    streams.push_back(std::move(*contents));
  }
  if (streams.empty()) return result;

  // B: everything at or below the highest base across streams is
  // already in the database file.
  uint64_t base = 0;
  for (const auto& s : streams) base = std::max(base, s.base_seq);

  // Merge the per-stream transaction subsequences into one total order.
  // Every database-wide commit sequence lands in exactly one stream, so
  // the merged keys are unique; a torn stream header (base_seq read as
  // 0, no transactions) merges nothing and cannot lower B below another
  // stream's base.
  std::map<uint64_t, const WalTxn*> merged;
  for (const auto& s : streams) {
    for (const auto& txn : s.txns) {
      if (txn.commit_seq > base) merged[txn.commit_seq] = &txn;
    }
  }

  // Replay while contiguous: the first missing sequence is a lost
  // stream tail; everything above it is discarded with it.
  uint64_t next = base + 1;
  const WalTxn* last_applied = nullptr;
  std::map<PageId, const std::string*> latest;  // collapse rewrites
  for (const auto& [seq, txn] : merged) {
    if (seq != next) break;
    for (const auto& [id, image] : txn->pages) latest[id] = &image;
    last_applied = txn;
    ++result.commits;
    ++next;
  }
  if (last_applied == nullptr) return result;

  for (const auto& [id, image] : latest) {
    BP_RETURN_IF_ERROR(WriteImage(db_file, id, *image, compression, &result));
  }
  if (sync) {
    BP_RETURN_IF_ERROR(db_file->Sync());
    result.synced_db = true;
  }
  result.ran = true;
  result.last_commit_seq = last_applied->commit_seq;
  result.page_count = last_applied->page_count;
  return result;
}

}  // namespace bp::wal
