// Block compression codecs for the storage engine.
//
// Every compressed blob is a self-describing *frame*:
//
//   [magic u32][codec u8][raw_size u32][payload_size u32][checksum u64]
//   [payload bytes ...]
//
// (21-byte header, little-endian, FNV-1a 64 checksum over the payload.)
// Frames are self-identifying so a reader handed either a raw page image
// or a compressed one can tell them apart: raw B-tree pages start with a
// type byte in {1,2,3} and the magic's first byte is none of those, and
// a frame is only trusted after its checksum verifies — a ~2^-96
// accidental-collision bar. Truncated or bit-flipped frames decode to
// Corruption, never to an out-of-bounds read.
//
// Codecs:
//   kNone     — payload is the raw bytes (used for tests / passthrough).
//   kLz       — LZ4-style byte window codec: greedy hash-table matcher,
//               (literal-run, match) token stream, 64 KiB offset window.
//   kIntDelta — payload interprets the raw bytes as a little-endian u64
//               array and stores zig-zag deltas as varints. raw_size must
//               be a multiple of 8.
//
// The inverted index's postings blobs use the same delta+varint scheme
// through EncodeDeltaPairs/DecodeDeltaPairs (sorted keys as gaps, values
// verbatim) — frameless, since the B-tree value is already length-framed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace bp::storage::compress {

enum class Codec : uint8_t {
  kNone = 0,
  kLz = 1,
  kIntDelta = 2,
};

inline constexpr uint32_t kFrameMagic = 0x42504346;  // "FCPB" on disk
inline constexpr size_t kFrameHeaderSize = 21;

struct FrameInfo {
  Codec codec = Codec::kNone;
  uint32_t raw_size = 0;
  // Total frame footprint: header + payload. For a padded page slot this
  // is the physical (hole-punchable) size, not the slot size. u64 so a
  // hostile payload_size field cannot wrap the sum.
  uint64_t stored_size = 0;
};

// Encodes `raw` as a frame with the given codec. Always succeeds (kLz
// falls back to literal runs on incompressible input; the caller applies
// any ratio policy). Precondition (BP_REQUIRE): kIntDelta needs
// raw.size() % 8 == 0.
std::string Compress(Codec codec, std::string_view raw);

// Decodes a frame produced by Compress. `data` may carry trailing bytes
// past the payload (page slots are zero-padded to the page size); they
// are ignored. Returns Corruption on bad magic, unknown codec, short
// input, checksum mismatch, or malformed payload.
util::Status Decompress(std::string_view data, std::string* out);

// Cheap header peek: true iff `data` begins with the frame magic.
bool LooksLikeFrame(std::string_view data);

// Parses the header only (no checksum verification). Corruption if the
// magic/codec/sizes are implausible for `data`.
util::Result<FrameInfo> Inspect(std::string_view data);

// --- integer sequence codec (postings and friends) ---------------------

// varint(count), then per pair: varint(key - prev_key), varint(value).
// Keys must be non-decreasing. No frame header; the caller owns framing.
std::string EncodeDeltaPairs(
    const std::vector<std::pair<uint64_t, uint64_t>>& pairs);

// Hardened inverse: the count is untrusted until proven payload-backed
// (each pair needs >= 2 bytes), so a flipped count byte cannot drive an
// unbounded reserve. Returns Corruption on truncation/overflow/trailing
// bytes.
util::Status DecodeDeltaPairs(
    std::string_view blob, std::vector<std::pair<uint64_t, uint64_t>>* out);

// --- policy ------------------------------------------------------------

struct CompressionOptions {
  enum class Mode : uint8_t { kOff = 0, kFast = 1 };

  // Default comes from the BP_COMPRESSION environment variable ("fast"
  // or "on" or "1" -> kFast) so the full test suite can run compressed
  // without per-test plumbing; unset means kOff.
  Mode mode = DefaultMode();

  // A compressed page is kept only when frame_size <= ratio_floor *
  // raw_size; otherwise the raw bytes are stored. Filters incompressible
  // pages whose frames would just add header overhead.
  double ratio_floor = 0.875;

  static Mode DefaultMode();
  bool enabled() const { return mode == Mode::kFast; }
  // Whether a frame of `frame_size` bytes standing for `raw_size` raw
  // bytes is worth keeping under this policy.
  bool ClearsRatioFloor(size_t frame_size, size_t raw_size) const {
    return static_cast<double>(frame_size) <=
           ratio_floor * static_cast<double>(raw_size);
  }
};

// Applies the ratio policy: returns the kLz frame for `page` when
// compression is on and the frame clears the floor, else an empty string
// (meaning: store the raw bytes).
std::string MaybeCompressPage(const CompressionOptions& options,
                              std::string_view page);

}  // namespace bp::storage::compress
