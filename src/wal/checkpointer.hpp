// Checkpointer: folds the committed contents of write-ahead log
// streams back into the main database file.
//
// Protocol (both call sites follow it; FoldStreams only does step 2):
//   1. The caller makes sure the log is durable (WalWriter::Sync) — the
//      log must always be AHEAD of the database file, otherwise a crash
//      could leave the database holding pages from a transaction the log
//      does not know committed. (During open-time crash recovery there
//      is nothing to sync: whatever survived IS the log.)
//   2. FoldStreams() writes committed page images from the log(s)
//      into the database file, then fsync it (when sync=true; a caller
//      that wants to append its own header patch to the same fsync
//      passes sync=false and syncs the db file itself).
//   3. The caller retires the log(s) (WalWriter::ResetToHeader at
//      runtime, Env::Remove during open-time recovery) — only AFTER the
//      fold is durable. A crash between 2 and 3 is harmless: folding is
//      idempotent, the next open refolds (and a stream removed early by
//      a crash mid-step-3 at most re-creates a gap above the already-
//      durable fold, which folds nothing).
//
// A database writes one stream, <db>.wal. Builds that split commits
// over two streams may have left a <db>.wal1 beside it, so recovery
// hands FoldStreams both paths and it merges them into ONE total order
// (with one stream the merge is just that stream's committed prefix):
//   B = max(base_seq over present streams)   — everything at or below B
//       is already in the database file (base_seq records the commit
//       sequence the db contained when the stream was (re)created);
//   replay merged commit sequences B+1, B+2, ... while contiguous —
//       every database-wide commit sequence lands in exactly one
//       stream, so a missing sequence means some stream lost its tail
//       in a crash; transactions above the gap may depend on pages
//       (allocations, freelist, header) from the missing one and are
//       discarded with it. The surviving prefix is the highest
//       MUTUALLY CONSISTENT merged sequence across all streams.
//
// Used at two points: Pager::Open (crash recovery = a fold of whatever
// committed prefix survives) and at runtime when the log crosses the
// size threshold or the pager closes cleanly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "storage/compress.hpp"
#include "storage/env.hpp"
#include "wal/wal_reader.hpp"

namespace bp::wal {

struct CheckpointResult {
  bool ran = false;  // false: no log / no committed frames
  uint64_t pages_folded = 0;
  uint64_t bytes_written = 0;
  uint64_t commits = 0;          // committed transactions folded
  uint64_t last_commit_seq = 0;  // highest merged sequence folded
  uint32_t page_count = 0;       // database page count after the fold
  bool synced_db = false;
  // Compression accounting (zero when folding uncompressed): pages
  // whose slot got a compressed frame, the physical frame bytes those
  // slots hold, and the raw page bytes they replace.
  uint64_t pages_compressed = 0;
  uint64_t compressed_bytes = 0;
  uint64_t raw_bytes_replaced = 0;
};

class Checkpointer {
 public:
  // Folds the merged, mutually consistent prefix of the streams at
  // `stream_paths` into `db_file` (step 2 above; merge rule in the file
  // header). Missing stream files are skipped; a Corruption from any
  // present stream's file header is propagated. When `compression` is
  // enabled, eligible pages (never page 0 — the header is read before
  // any decoder exists) are folded as self-describing compressed
  // frames, zero-padded to the page slot; incompressible pages (ratio
  // floor) stay raw. Folding is still idempotent: refolding the same
  // images rewrites byte-identical slots.
  static util::Result<CheckpointResult> FoldStreams(
      Env* env, storage::File* db_file,
      const std::vector<std::string>& stream_paths, bool sync,
      const storage::compress::CompressionOptions& compression =
          storage::compress::CompressionOptions{
              storage::compress::CompressionOptions::Mode::kOff});
};

}  // namespace bp::wal
