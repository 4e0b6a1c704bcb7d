// On-disk format of a write-ahead log stream.
//
// A database writes one WAL stream, stream 0 at <db path>.wal. It is a
// sequential, checksummed redo log with its own LSN sequence and a
// chained checksum. A committing transaction appends one kPageImage
// frame per dirty page followed by a kCommit frame in a single
// File::Write; durability costs at most one fsync per transaction (and,
// with group commit, one fsync per *window* of transactions).
//
// The header's stream id and base sequence date from builds that split
// commits over several streams (stream N at <db path>.walN). The format
// keeps them so recovery can still merge a stream 1 such a build left
// behind.
//
// Layout:
//   file header:  magic u32 | version u32 | page_size u32 | salt u64 |
//                 stream_id u32 | base_seq u64
//   frame header: type u8 | stream u8 | page_id u32 | lsn u64 |
//                 payload_len u32
//   frame:        header | payload bytes | checksum u64
//
// The checksum is FNV-1a over the frame header + payload, *seeded with
// the previous frame's checksum* (the first frame is seeded with the
// file header's salt). Chaining means a frame only validates if every
// frame before it validated, so a reader can treat the first bad or
// torn frame as the end of the log — exactly the property crash
// recovery needs: a crash at any byte boundary leaves a valid committed
// prefix *of that stream*.
//
// kCommit frames carry (commit_seq u64, page_count u32). commit_seq is
// drawn from the database-wide commit clock, so the union of all
// streams' commit frames forms one total order; each stream carries a
// subsequence of it. `base_seq` records the commit sequence the main
// database file already contained when the stream was (re)created —
// recovery skips commit frames at or below the highest base across
// streams, then replays the merged sequence while it stays contiguous
// (see Checkpointer::FoldStreams). The per-frame stream byte must match
// the header's stream_id; a frame from another stream ends the log like
// any other corruption.
//
// Page images that are not followed by a commit frame belong to a
// transaction whose fsync never completed; recovery ignores them.
#pragma once

#include <cstdint>

#include "storage/page.hpp"

namespace bp::wal {

constexpr uint32_t kWalMagic = 0x4250574c;  // "BPWL"
constexpr uint32_t kWalVersion = 2;         // 2: stream id + base seq

// Fixed seed for the first frame's checksum chain. A per-file random salt
// would guard against reading frames from a *previous* WAL incarnation,
// but the log is truncated to its header after every checkpoint, so stale
// frames cannot be observed through this Env API.
constexpr uint64_t kWalSalt = 0x77616c2d73616c74ULL;  // "wal-salt"

constexpr size_t kWalFileHeaderBytes = 4 + 4 + 4 + 8 + 4 + 8;
constexpr size_t kWalFrameHeaderBytes = 1 + 1 + 4 + 8 + 4;
constexpr size_t kWalFrameTrailerBytes = 8;  // checksum

enum class FrameType : uint8_t {
  kPageImage = 1,
  kCommit = 2,
};

// Payload of a kCommit frame: commit_seq u64 | page_count u32.
constexpr size_t kWalCommitPayloadBytes = 8 + 4;

inline constexpr size_t FrameBytes(size_t payload_len) {
  return kWalFrameHeaderBytes + payload_len + kWalFrameTrailerBytes;
}

}  // namespace bp::wal
