#include "storage/btree.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/require.hpp"
#include "util/serde.hpp"
#include "util/strings.hpp"

namespace bp::storage {

using util::Reader;
using util::Result;
using util::Status;
using util::Writer;

namespace {

// ----------------------------------------------------------- page layout
//
//  0: u8  type (1 leaf, 2 interior, 3 overflow)
//  1: u8  unused
//  2: u16 ncells
//  4: u16 content_start (cells grow down from kPageSize)
//  6: u16 frag bytes (dead cell bytes; compacted on demand)
//  8: u32 aux   (leaf: next leaf | interior: rightmost child |
//                overflow: next overflow page)
// 12: u32 aux2  (leaf: prev leaf | overflow: payload byte count)
// 16: u16 cell_ptrs[ncells], then free space, then cell content.

constexpr uint8_t kTypeLeaf = 1;
constexpr uint8_t kTypeInterior = 2;
constexpr uint8_t kTypeOverflow = 3;

constexpr size_t kNodeHeader = 16;
constexpr size_t kOverflowCapacity = kPageSize - kNodeHeader;
// Encoded cells above this size spill their value to overflow pages.
// 1024 guarantees >= 2 cells per leaf even in the worst case.
constexpr size_t kMaxCellSize = 1024;

uint16_t GetU16(const char* p, size_t off) {
  return static_cast<uint16_t>(static_cast<uint8_t>(p[off]) |
                               (static_cast<uint8_t>(p[off + 1]) << 8));
}
void SetU16(char* p, size_t off, uint16_t v) {
  p[off] = static_cast<char>(v & 0xff);
  p[off + 1] = static_cast<char>(v >> 8);
}
uint32_t GetU32(const char* p, size_t off) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[off + i])) << (8 * i);
  }
  return v;
}
void SetU32(char* p, size_t off, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    p[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// More cells than this cannot fit: each takes a 2-byte pointer plus at
// least one byte of content. Capping the stored count keeps a corrupt
// one from sending CellPtr past the page.
constexpr uint16_t kMaxCells = (kPageSize - kNodeHeader) / 3;

uint8_t NodeType(const char* p) { return static_cast<uint8_t>(p[0]); }
uint16_t NCells(const char* p) { return std::min(GetU16(p, 2), kMaxCells); }
uint16_t ContentStart(const char* p) { return GetU16(p, 4); }
uint16_t Frag(const char* p) { return GetU16(p, 6); }
uint32_t Aux(const char* p) { return GetU32(p, 8); }
uint32_t Aux2(const char* p) { return GetU32(p, 12); }
void SetNCells(char* p, uint16_t v) { SetU16(p, 2, v); }
void SetContentStart(char* p, uint16_t v) { SetU16(p, 4, v); }
void SetFrag(char* p, uint16_t v) { SetU16(p, 6, v); }
void SetAux(char* p, uint32_t v) { SetU32(p, 8, v); }
void SetAux2(char* p, uint32_t v) { SetU32(p, 12, v); }

void InitNode(char* p, uint8_t type) {
  std::memset(p, 0, kNodeHeader);
  p[0] = static_cast<char>(type);
  SetContentStart(p, static_cast<uint16_t>(kPageSize));
}

uint16_t CellPtr(const char* p, uint32_t i) {
  return GetU16(p, kNodeHeader + 2 * i);
}
void SetCellPtr(char* p, uint32_t i, uint16_t v) {
  SetU16(p, kNodeHeader + 2 * i, v);
}

// View of cell bytes from the cell's start to the end of the page; the
// parser knows where the cell actually ends. A pointer outside the
// content area (past the pointer array, inside the page) is damage: it
// yields an empty view, which every cell parser rejects as malformed.
std::string_view CellBytes(const char* p, uint32_t i) {
  const uint16_t off = CellPtr(p, i);
  if (off < kNodeHeader + 2 * size_t{NCells(p)} || off >= kPageSize) {
    return {};
  }
  return std::string_view(p + off, kPageSize - off);
}

size_t FreeSpace(const char* p) {
  return ContentStart(p) - (kNodeHeader + 2 * size_t{NCells(p)});
}

// -------------------------------------------------------------- cells

struct LeafCell {
  std::string_view key;
  bool is_overflow = false;
  std::string_view inline_value;  // when !is_overflow
  uint64_t total_len = 0;         // when is_overflow
  PageId first_overflow = kNoPage;
  size_t size = 0;  // encoded length
};

struct InteriorCell {
  std::string_view key;
  PageId child = kNoPage;
  size_t size = 0;
};

// The cell bytes are trusted (we wrote them); a malformed cell manifests
// as a BP_CHECK failure rather than Status because it indicates an
// engine bug or on-disk damage. Out-of-range page ids are caught one
// layer down: the pager and the snapshot read path return Corruption.
LeafCell ParseLeafCell(std::string_view bytes) {
  Reader r(bytes);
  LeafCell cell;
  cell.key = r.ReadString();
  uint8_t kind = r.ReadU8();
  if (kind == 0) {
    cell.inline_value = r.ReadString();
    cell.total_len = cell.inline_value.size();
  } else {
    cell.is_overflow = true;
    cell.total_len = r.ReadVarint64();
    cell.first_overflow = r.ReadU32();
  }
  BP_CHECK(r.ok(), "malformed leaf cell");
  cell.size = r.position();
  return cell;
}

InteriorCell ParseInteriorCell(std::string_view bytes) {
  Reader r(bytes);
  InteriorCell cell;
  cell.key = r.ReadString();
  cell.child = r.ReadU32();
  BP_CHECK(r.ok(), "malformed interior cell");
  cell.size = r.position();
  return cell;
}

size_t CellSize(uint8_t page_type, std::string_view bytes) {
  return page_type == kTypeLeaf ? ParseLeafCell(bytes).size
                                : ParseInteriorCell(bytes).size;
}

std::string_view CellKey(uint8_t page_type, std::string_view bytes) {
  return page_type == kTypeLeaf ? ParseLeafCell(bytes).key
                                : ParseInteriorCell(bytes).key;
}

std::string EncodeLeafCellInline(std::string_view key,
                                 std::string_view value) {
  Writer w;
  w.PutString(key);
  w.PutU8(0);
  w.PutString(value);
  return std::move(w).data();
}

std::string EncodeLeafCellOverflow(std::string_view key, uint64_t total_len,
                                   PageId first) {
  Writer w;
  w.PutString(key);
  w.PutU8(1);
  w.PutVarint64(total_len);
  w.PutU32(first);
  return std::move(w).data();
}

std::string EncodeInteriorCell(std::string_view key, PageId child) {
  Writer w;
  w.PutString(key);
  w.PutU32(child);
  return std::move(w).data();
}

void Compact(char* p) {
  const uint8_t type = NodeType(p);
  const uint16_t n = NCells(p);
  std::vector<std::string> cells;
  cells.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string_view bytes = CellBytes(p, i);
    cells.emplace_back(bytes.substr(0, CellSize(type, bytes)));
  }
  uint16_t content = static_cast<uint16_t>(kPageSize);
  for (uint32_t i = 0; i < n; ++i) {
    content = static_cast<uint16_t>(content - cells[i].size());
    std::memcpy(p + content, cells[i].data(), cells[i].size());
    SetCellPtr(p, i, content);
  }
  SetContentStart(p, content);
  SetFrag(p, 0);
}

// Inserts `cell` as cell index `i`, compacting first if fragmentation
// permits. Returns false when the page genuinely cannot hold the cell
// (caller must split).
bool InsertCellAt(char* p, uint32_t i, std::string_view cell) {
  const size_t need = cell.size() + 2;
  if (FreeSpace(p) < need) {
    if (FreeSpace(p) + Frag(p) < need) return false;
    Compact(p);
  }
  const uint16_t n = NCells(p);
  BP_CHECK(i <= n);
  uint16_t content = static_cast<uint16_t>(ContentStart(p) - cell.size());
  std::memcpy(p + content, cell.data(), cell.size());
  SetContentStart(p, content);
  // Shift the pointer array open at i.
  std::memmove(p + kNodeHeader + 2 * (i + 1), p + kNodeHeader + 2 * i,
               2 * size_t{static_cast<uint16_t>(n - i)});
  SetCellPtr(p, i, content);
  SetNCells(p, static_cast<uint16_t>(n + 1));
  return true;
}

void RemoveCellAt(char* p, uint32_t i, size_t cell_size) {
  const uint16_t n = NCells(p);
  BP_CHECK(i < n);
  SetFrag(p, static_cast<uint16_t>(Frag(p) + cell_size));
  std::memmove(p + kNodeHeader + 2 * i, p + kNodeHeader + 2 * (i + 1),
               2 * size_t{static_cast<uint16_t>(n - i - 1)});
  SetNCells(p, static_cast<uint16_t>(n - 1));
}

// First cell index whose key is >= `key` (== ncells when none).
uint32_t LowerBound(const char* p, std::string_view key) {
  const uint8_t type = NodeType(p);
  uint32_t lo = 0;
  uint32_t hi = NCells(p);
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (CellKey(type, CellBytes(p, mid)) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Child to descend into for `key`: the first separator >= key, else the
// rightmost (aux) child. ref_index == ncells denotes aux.
std::pair<uint32_t, PageId> FindChild(const char* p, std::string_view key) {
  uint32_t idx = LowerBound(p, key);
  if (idx < NCells(p)) {
    return {idx, ParseInteriorCell(CellBytes(p, idx)).child};
  }
  return {idx, Aux(p)};
}

// Rewrites the child pointer of interior cell i in place (the child is
// the trailing 4 bytes of the cell encoding).
void SetInteriorCellChild(char* p, uint32_t i, PageId child) {
  std::string_view bytes = CellBytes(p, i);
  size_t size = ParseInteriorCell(bytes).size;
  SetU32(p, CellPtr(p, i) + size - 4, child);
}

}  // namespace

// ------------------------------------------------------------ lifecycle

Result<PageView> BTree::FetchPage(PageId id) const {
  if (snap_ != nullptr) {
    BP_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> page,
                        snap_->ReadPage(id));
    return PageView(std::move(page));
  }
  BP_ASSIGN_OR_RETURN(PageRef ref, pager_.Get(id));
  return PageView(std::move(ref));
}

Result<PageId> BTree::Create(Pager& pager) {
  BP_REQUIRE(pager.InTransaction(), "BTree::Create requires a transaction");
  BP_ASSIGN_OR_RETURN(PageId root, pager.Allocate());
  BP_ASSIGN_OR_RETURN(PageRef ref, pager.GetMutable(root));
  InitNode(ref.mutable_data(), kTypeLeaf);
  return root;
}

// ------------------------------------------------------------- overflow

Result<PageId> BTree::WriteOverflowChain(std::string_view value) {
  // Build back to front so each page can point at its successor.
  PageId next = kNoPage;
  size_t nchunks = (value.size() + kOverflowCapacity - 1) / kOverflowCapacity;
  BP_CHECK(nchunks >= 1);
  for (size_t i = nchunks; i-- > 0;) {
    size_t off = i * kOverflowCapacity;
    size_t len = std::min(kOverflowCapacity, value.size() - off);
    BP_ASSIGN_OR_RETURN(PageId id, pager_.Allocate());
    BP_ASSIGN_OR_RETURN(PageRef ref, pager_.GetMutable(id));
    InitNode(ref.mutable_data(), kTypeOverflow);
    SetAux(ref.mutable_data(), next);
    SetAux2(ref.mutable_data(), static_cast<uint32_t>(len));
    std::memcpy(ref.mutable_data() + kNodeHeader, value.data() + off, len);
    next = id;
  }
  return next;
}

Result<std::string> BTree::ReadOverflowChain(PageId first,
                                             uint64_t total_len) const {
  std::string out;
  out.reserve(total_len);
  PageId page = first;
  while (page != kNoPage && out.size() < total_len) {
    BP_ASSIGN_OR_RETURN(PageView ref, FetchPage(page));
    if (NodeType(ref.data()) != kTypeOverflow) {
      return Status::Corruption("overflow chain hits a non-overflow page");
    }
    uint32_t len = Aux2(ref.data());
    if (len > kOverflowCapacity) {
      return Status::Corruption("overflow page claims more than a page");
    }
    out.append(ref.data() + kNodeHeader, len);
    page = Aux(ref.data());
  }
  if (out.size() != total_len) {
    return Status::Corruption(util::StrFormat(
        "overflow chain length mismatch: want %llu got %zu",
        (unsigned long long)total_len, out.size()));
  }
  return out;
}

Status BTree::FreeOverflowChain(PageId first) {
  PageId page = first;
  while (page != kNoPage) {
    PageId next;
    {
      BP_ASSIGN_OR_RETURN(PageRef ref, pager_.Get(page));
      next = Aux(ref.data());
    }
    BP_RETURN_IF_ERROR(pager_.Free(page));
    page = next;
  }
  return Status::Ok();
}

Status BTree::FreeLeafCellPayload(std::string_view cell_bytes) {
  LeafCell cell = ParseLeafCell(cell_bytes);
  if (cell.is_overflow) {
    return FreeOverflowChain(cell.first_overflow);
  }
  return Status::Ok();
}

// --------------------------------------------------------------- insert

Status BTree::Put(std::string_view key, std::string_view value) {
  BP_REQUIRE(snap_ == nullptr, "Put on a snapshot-bound tree");
  BP_REQUIRE(!key.empty(), "empty keys are not supported");
  BP_REQUIRE(key.size() <= kMaxKeySize, "key exceeds kMaxKeySize");
  AutoTxn txn(pager_);
  auto result = InsertRec(root_, key, value);
  if (!result.ok()) return result.status();
  if (result->split) {
    BP_RETURN_IF_ERROR(SplitRootIfNeeded(*result));
  }
  return txn.Commit();
}

Result<BTree::SplitResult> BTree::InsertRec(PageId page_id,
                                            std::string_view key,
                                            std::string_view value) {
  // Descend with a read-only fetch: interior pages are dirtied only when
  // a child split bubbles up into them.
  bool is_interior;
  uint32_t ref_index;
  PageId child = kNoPage;
  {
    BP_ASSIGN_OR_RETURN(PageRef peek, pager_.Get(page_id));
    is_interior = NodeType(peek.data()) == kTypeInterior;
    if (is_interior) {
      std::tie(ref_index, child) = FindChild(peek.data(), key);
    }
  }

  if (is_interior) {
    BP_CHECK(child != kNoPage, "interior node with no child for key");
    BP_ASSIGN_OR_RETURN(SplitResult child_split,
                        InsertRec(child, key, value));
    if (!child_split.split) return SplitResult{};

    BP_ASSIGN_OR_RETURN(PageRef ref, pager_.GetMutable(page_id));
    char* p = ref.mutable_data();

    // The child kept its low half; the high half moved to new_right. The
    // existing reference (whose separator still bounds the high half)
    // must point at new_right, and a new cell (separator, child) routes
    // the low half.
    if (ref_index < NCells(p)) {
      SetInteriorCellChild(p, ref_index, child_split.new_right);
    } else {
      SetAux(p, child_split.new_right);
    }
    std::string cell = EncodeInteriorCell(child_split.separator, child);
    if (InsertCellAt(p, ref_index, cell)) return SplitResult{};

    // Split this interior node: promote the byte-weighted middle cell.
    const uint16_t n = NCells(p);
    std::vector<std::string> cells;
    cells.reserve(n + 1);
    size_t total = 0;
    for (uint32_t i = 0; i < n; ++i) {
      std::string_view bytes = CellBytes(p, i);
      cells.emplace_back(bytes.substr(0, ParseInteriorCell(bytes).size));
      total += cells.back().size();
    }
    cells.insert(cells.begin() + ref_index, cell);
    total += cell.size();
    BP_CHECK(cells.size() >= 3, "interior split with too few cells");

    size_t acc = 0;
    uint32_t mid = 0;
    for (uint32_t i = 0; i < cells.size(); ++i) {
      acc += cells[i].size();
      if (acc * 2 >= total) {
        mid = i;
        break;
      }
    }
    // Append-order heuristic (see the leaf split): sequential separator
    // inserts keep interior pages full too.
    if (ref_index == cells.size() - 1) {
      mid = static_cast<uint32_t>(cells.size()) - 2;
    }
    mid = std::clamp<uint32_t>(mid, 1, static_cast<uint32_t>(cells.size()) - 2);

    const PageId old_aux = Aux(p);
    const InteriorCell promoted = ParseInteriorCell(cells[mid]);
    const std::string promoted_key(promoted.key);

    BP_ASSIGN_OR_RETURN(PageId right_id, pager_.Allocate());
    BP_ASSIGN_OR_RETURN(PageRef right_ref, pager_.GetMutable(right_id));
    char* rp = right_ref.mutable_data();
    InitNode(rp, kTypeInterior);
    for (uint32_t i = mid + 1; i < cells.size(); ++i) {
      BP_CHECK(InsertCellAt(rp, i - mid - 1, cells[i]));
    }
    SetAux(rp, old_aux);

    InitNode(p, kTypeInterior);
    for (uint32_t i = 0; i < mid; ++i) {
      BP_CHECK(InsertCellAt(p, i, cells[i]));
    }
    SetAux(p, promoted.child);

    SplitResult out;
    out.split = true;
    out.separator = promoted_key;
    out.new_right = right_id;
    return out;
  }

  BP_ASSIGN_OR_RETURN(PageRef ref, pager_.GetMutable(page_id));
  char* p = ref.mutable_data();
  BP_CHECK(NodeType(p) == kTypeLeaf, "unexpected page type in descent");

  uint32_t pos = LowerBound(p, key);
  if (pos < NCells(p)) {
    std::string_view bytes = CellBytes(p, pos);
    LeafCell existing = ParseLeafCell(bytes);
    if (existing.key == key) {
      BP_RETURN_IF_ERROR(FreeLeafCellPayload(bytes));
      RemoveCellAt(p, pos, existing.size);
    }
  }

  std::string cell = EncodeLeafCellInline(key, value);
  if (cell.size() > kMaxCellSize) {
    BP_ASSIGN_OR_RETURN(PageId first, WriteOverflowChain(value));
    cell = EncodeLeafCellOverflow(key, value.size(), first);
  }
  if (InsertCellAt(p, pos, cell)) return SplitResult{};

  // Split the leaf around the byte-weighted midpoint.
  const uint16_t n = NCells(p);
  std::vector<std::string> cells;
  cells.reserve(n + 1);
  size_t total = 0;
  for (uint32_t i = 0; i < n; ++i) {
    std::string_view bytes = CellBytes(p, i);
    cells.emplace_back(bytes.substr(0, ParseLeafCell(bytes).size));
    total += cells.back().size();
  }
  cells.insert(cells.begin() + pos, cell);
  total += cell.size();
  BP_CHECK(cells.size() >= 2, "leaf split with too few cells");

  size_t acc = 0;
  uint32_t split_at = 0;
  for (uint32_t i = 0; i < cells.size(); ++i) {
    acc += cells[i].size();
    if (acc * 2 >= total) {
      split_at = i + 1;
      break;
    }
  }
  // Append-order heuristic (as in SQLite): when the new cell lands at the
  // very end (sequential keys — the common case for row ids and
  // adjacency), keep the left page full and start a fresh right page,
  // giving ~100% fill instead of ~50%. Mirror case for descending loads.
  if (pos == cells.size() - 1) {
    split_at = static_cast<uint32_t>(cells.size()) - 1;
  } else if (pos == 0) {
    split_at = 1;
  }
  split_at =
      std::clamp<uint32_t>(split_at, 1, static_cast<uint32_t>(cells.size()) - 1);

  const PageId old_next = Aux(p);
  const PageId old_prev = Aux2(p);

  BP_ASSIGN_OR_RETURN(PageId right_id, pager_.Allocate());
  BP_ASSIGN_OR_RETURN(PageRef right_ref, pager_.GetMutable(right_id));
  char* rp = right_ref.mutable_data();
  InitNode(rp, kTypeLeaf);
  for (uint32_t i = split_at; i < cells.size(); ++i) {
    BP_CHECK(InsertCellAt(rp, i - split_at, cells[i]));
  }
  SetAux(rp, old_next);
  SetAux2(rp, page_id);

  InitNode(p, kTypeLeaf);
  for (uint32_t i = 0; i < split_at; ++i) {
    BP_CHECK(InsertCellAt(p, i, cells[i]));
  }
  SetAux(p, right_id);
  SetAux2(p, old_prev);

  if (old_next != kNoPage) {
    BP_ASSIGN_OR_RETURN(PageRef next_ref, pager_.GetMutable(old_next));
    SetAux2(next_ref.mutable_data(), right_id);
  }

  SplitResult out;
  out.split = true;
  out.separator = std::string(ParseLeafCell(cells[split_at - 1]).key);
  out.new_right = right_id;
  return out;
}

Status BTree::SplitRootIfNeeded(const SplitResult& split) {
  BP_CHECK(split.split);
  // The root id must stay stable: move the root's (low-half) content to a
  // fresh "left" page and rewrite the root as an interior node over
  // {left, new_right}.
  BP_ASSIGN_OR_RETURN(PageId left_id, pager_.Allocate());
  BP_ASSIGN_OR_RETURN(PageRef root_ref, pager_.GetMutable(root_));
  BP_ASSIGN_OR_RETURN(PageRef left_ref, pager_.GetMutable(left_id));
  std::memcpy(left_ref.mutable_data(), root_ref.data(), kPageSize);

  if (NodeType(left_ref.data()) == kTypeLeaf) {
    // The old root was the leftmost leaf; its successor's back link still
    // names the root page.
    PageId next = Aux(left_ref.data());
    if (next != kNoPage) {
      BP_ASSIGN_OR_RETURN(PageRef next_ref, pager_.GetMutable(next));
      SetAux2(next_ref.mutable_data(), left_id);
    }
  }

  char* p = root_ref.mutable_data();
  InitNode(p, kTypeInterior);
  std::string cell = EncodeInteriorCell(split.separator, left_id);
  BP_CHECK(InsertCellAt(p, 0, cell));
  SetAux(p, split.new_right);
  return Status::Ok();
}

// --------------------------------------------------------------- lookup

Result<PageId> BTree::LeafForKey(std::string_view key,
                                 std::vector<DescentRef>* path) const {
  PageId page_id = root_;
  while (true) {
    BP_ASSIGN_OR_RETURN(PageView ref, FetchPage(page_id));
    const char* p = ref.data();
    if (NodeType(p) == kTypeLeaf) return page_id;
    BP_CHECK(NodeType(p) == kTypeInterior);
    auto [ref_index, child] = FindChild(p, key);
    BP_CHECK(child != kNoPage);
    if (path != nullptr) {
      path->push_back(DescentRef{page_id, ref_index});
    }
    page_id = child;
  }
}

Result<std::string> BTree::Get(std::string_view key) const {
  BP_ASSIGN_OR_RETURN(PageId leaf_id, LeafForKey(key, nullptr));
  BP_ASSIGN_OR_RETURN(PageView ref, FetchPage(leaf_id));
  const char* p = ref.data();
  uint32_t pos = LowerBound(p, key);
  if (pos >= NCells(p)) return Status::NotFound();
  LeafCell cell = ParseLeafCell(CellBytes(p, pos));
  if (cell.key != key) return Status::NotFound();
  if (cell.is_overflow) {
    return ReadOverflowChain(cell.first_overflow, cell.total_len);
  }
  return std::string(cell.inline_value);
}

Result<bool> BTree::Contains(std::string_view key) const {
  auto v = Get(key);
  if (v.ok()) return true;
  if (v.status().IsNotFound()) return false;
  return v.status();
}

// --------------------------------------------------------------- delete

Status BTree::Delete(std::string_view key) {
  BP_REQUIRE(snap_ == nullptr, "Delete on a snapshot-bound tree");
  AutoTxn txn(pager_);
  std::vector<DescentRef> path;
  auto leaf_or = LeafForKey(key, &path);
  if (!leaf_or.ok()) return leaf_or.status();
  PageId cur = *leaf_or;

  {
    BP_ASSIGN_OR_RETURN(PageRef ref, pager_.Get(cur));
    uint32_t pos = LowerBound(ref.data(), key);
    if (pos >= NCells(ref.data()) ||
        ParseLeafCell(CellBytes(ref.data(), pos)).key != key) {
      return Status::NotFound();
    }
  }

  // Re-fetch mutably and remove.
  {
    BP_ASSIGN_OR_RETURN(PageRef ref, pager_.GetMutable(cur));
    char* p = ref.mutable_data();
    uint32_t pos = LowerBound(p, key);
    std::string_view bytes = CellBytes(p, pos);
    LeafCell cell = ParseLeafCell(bytes);
    BP_RETURN_IF_ERROR(FreeLeafCellPayload(bytes));
    RemoveCellAt(p, pos, cell.size);
  }

  // Retire emptied pages up the recorded path.
  while (cur != root_) {
    bool empty = false;
    bool is_leaf = false;
    PageId next = kNoPage;
    PageId prev = kNoPage;
    {
      BP_ASSIGN_OR_RETURN(PageRef ref, pager_.Get(cur));
      const char* p = ref.data();
      is_leaf = NodeType(p) == kTypeLeaf;
      empty = NCells(p) == 0 && (is_leaf || Aux(p) == kNoPage);
      next = Aux(p);
      prev = Aux2(p);
    }
    if (!empty) break;

    if (is_leaf) {
      if (prev != kNoPage) {
        BP_ASSIGN_OR_RETURN(PageRef ref, pager_.GetMutable(prev));
        SetAux(ref.mutable_data(), next);
      }
      if (next != kNoPage) {
        BP_ASSIGN_OR_RETURN(PageRef ref, pager_.GetMutable(next));
        SetAux2(ref.mutable_data(), prev);
      }
    }
    BP_RETURN_IF_ERROR(pager_.Free(cur));

    BP_CHECK(!path.empty());
    DescentRef parent = path.back();
    path.pop_back();
    BP_ASSIGN_OR_RETURN(PageRef ref, pager_.GetMutable(parent.page));
    char* p = ref.mutable_data();
    if (parent.ref_index < NCells(p)) {
      std::string_view bytes = CellBytes(p, parent.ref_index);
      RemoveCellAt(p, parent.ref_index, ParseInteriorCell(bytes).size);
    } else if (NCells(p) > 0) {
      // The aux child vanished: the last separator's child becomes aux.
      uint32_t last = NCells(p) - 1;
      InteriorCell last_cell = ParseInteriorCell(CellBytes(p, last));
      SetAux(p, last_cell.child);
      RemoveCellAt(p, last, last_cell.size);
    } else {
      SetAux(p, kNoPage);  // no children remain; parent is now empty
    }
    cur = parent.page;
  }

  // Collapse a root that degenerated to a single (aux) child.
  while (true) {
    PageId child = kNoPage;
    {
      BP_ASSIGN_OR_RETURN(PageRef ref, pager_.Get(root_));
      const char* p = ref.data();
      if (NodeType(p) != kTypeInterior || NCells(p) != 0 ||
          Aux(p) == kNoPage) {
        break;
      }
      child = Aux(p);
    }
    {
      BP_ASSIGN_OR_RETURN(PageRef root_ref, pager_.GetMutable(root_));
      BP_ASSIGN_OR_RETURN(PageRef child_ref, pager_.Get(child));
      std::memcpy(root_ref.mutable_data(), child_ref.data(), kPageSize);
    }
    // If the hoisted child is a leaf it was the only leaf; if interior,
    // its children are unaffected. Siblings cannot exist either way.
    BP_RETURN_IF_ERROR(pager_.Free(child));
  }
  return txn.Commit();
}

// --------------------------------------------------------------- cursor

void BTree::Cursor::Fail(Status status) {
  status_ = std::move(status);
  valid_ = false;
}

void BTree::Cursor::Seek(std::string_view target) {
  bound_prefix_.clear();
  bound_hi_.clear();
  status_ = Status::Ok();
  SeekInternal(target, /*exclusive=*/false);
}

void BTree::Cursor::SeekPrefix(std::string_view prefix) {
  status_ = Status::Ok();
  bound_prefix_.assign(prefix);
  bound_hi_.clear();
  SeekInternal(prefix, /*exclusive=*/false);
}

void BTree::Cursor::SeekRange(std::string_view lo, std::string_view hi) {
  status_ = Status::Ok();
  bound_prefix_.clear();
  bound_hi_.assign(hi);
  SeekInternal(lo, /*exclusive=*/false);
}

void BTree::Cursor::SeekInternal(std::string_view target, bool exclusive) {
  valid_ = false;
  BP_CHECK(tree_ != nullptr, "Seek on a default-constructed cursor");
  change_stamp_ = tree_->ReadStamp();
  auto leaf = tree_->LeafForKey(target, nullptr);
  if (!leaf.ok()) return Fail(leaf.status());
  leaf_ = *leaf;
  {
    auto ref = tree_->FetchPage(leaf_);
    if (!ref.ok()) return Fail(ref.status());
    pos_ = target.empty() ? 0 : LowerBound(ref->data(), target);
    if (exclusive && pos_ < NCells(ref->data()) &&
        ParseLeafCell(CellBytes(ref->data(), pos_)).key == target) {
      ++pos_;
    }
  }
  LoadOrAdvance();
}

void BTree::Cursor::Next() {
  if (!valid_) return;  // exhausted or errored: stay put
  // Snapshot-bound trees cannot change under the cursor, so the stamp
  // comparison is always-equal there and the re-seek never fires.
  if (change_stamp_ != tree_->ReadStamp()) {
    // Something mutated (possibly the entry under us): the (leaf_, pos_)
    // slot is no longer trustworthy. Re-seek by key to the successor of
    // the last entry returned.
    std::string last = std::move(key_);
    SeekInternal(last, /*exclusive=*/true);
    return;
  }
  ++pos_;
  LoadOrAdvance();
}

void BTree::Cursor::LoadOrAdvance() {
  valid_ = false;
  while (leaf_ != kNoPage) {
    auto ref = tree_->FetchPage(leaf_);
    if (!ref.ok()) return Fail(ref.status());
    const char* p = ref->data();
    BP_CHECK(NodeType(p) == kTypeLeaf, "cursor left the leaf level");
    if (pos_ >= NCells(p)) {
      // Off the end of this leaf (empty leaves exist only as an empty
      // root): follow the chain.
      leaf_ = Aux(p);
      pos_ = 0;
      continue;
    }
    LeafCell cell = ParseLeafCell(CellBytes(p, pos_));
    // Bounds are checked before the value is touched: an out-of-range
    // entry costs neither an overflow read nor a rows_scanned tick.
    if (!bound_prefix_.empty() &&
        (cell.key.size() < bound_prefix_.size() ||
         cell.key.substr(0, bound_prefix_.size()) != bound_prefix_)) {
      return;  // past the prefix bound: exhausted, status stays Ok
    }
    if (!bound_hi_.empty() && cell.key >= bound_hi_) {
      return;  // past the range bound: exhausted, status stays Ok
    }
    ++rows_scanned_;
    key_.assign(cell.key);
    if (cell.is_overflow) {
      // The chain read takes its own page refs; copy what we need from
      // `cell` first, then drop `ref` by scope exit order (safe: PageRefs
      // only pin, reads do not recurse into this leaf).
      auto value = tree_->ReadOverflowChain(cell.first_overflow,
                                            cell.total_len);
      if (!value.ok()) return Fail(value.status());
      value_ = *std::move(value);
    } else {
      value_.assign(cell.inline_value);
    }
    valid_ = true;
    return;
  }
}

// ---------------------------------------------------------------- scans
//
// The ForEach* family survives as thin wrappers so existing callers keep
// working; all internal read paths sit on Cursor directly.

Status BTree::ForEachRange(
    std::string_view lo, std::string_view hi,
    const std::function<bool(std::string_view, std::string_view)>& fn)
    const {
  Cursor cur = NewCursor();
  for (cur.SeekRange(lo, hi); cur.Valid(); cur.Next()) {
    if (!fn(cur.key(), cur.value())) break;
  }
  return cur.status();
}

Status BTree::ForEach(
    const std::function<bool(std::string_view, std::string_view)>& fn)
    const {
  return ForEachRange({}, {}, fn);
}

Status BTree::ForEachPrefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, std::string_view)>& fn)
    const {
  Cursor cur = NewCursor();
  for (cur.SeekPrefix(prefix); cur.Valid(); cur.Next()) {
    if (!fn(cur.key(), cur.value())) break;
  }
  return cur.status();
}

Result<uint64_t> BTree::CountRange(std::string_view lo,
                                   std::string_view hi) const {
  BP_ASSIGN_OR_RETURN(PageId page_id, LeafForKey(lo, nullptr));
  uint64_t n = 0;
  bool first = true;
  while (page_id != kNoPage) {
    BP_ASSIGN_OR_RETURN(PageView ref, FetchPage(page_id));
    const char* p = ref.data();
    const uint32_t start =
        first && !lo.empty() ? LowerBound(p, lo) : 0;
    first = false;
    uint32_t end = NCells(p);
    if (!hi.empty()) {
      // hi may fall inside this leaf; binary-search the boundary instead
      // of decoding every cell.
      uint32_t bound = LowerBound(p, hi);
      if (bound < end) {
        n += bound > start ? bound - start : 0;
        return n;
      }
    }
    n += end > start ? end - start : 0;
    page_id = Aux(p);
  }
  return n;
}

Result<uint64_t> BTree::Count() const {
  return CountRange({}, {});
}

// ---------------------------------------------------------------- stats

Result<TreeStats> BTree::Stats() const {
  TreeStats stats;
  // Iterative DFS; (page, depth) pairs.
  std::vector<std::pair<PageId, uint32_t>> stack{{root_, 1}};
  while (!stack.empty()) {
    auto [page_id, depth] = stack.back();
    stack.pop_back();
    stats.depth = std::max(stats.depth, depth);
    stats.disk_bytes += pager_.OnDiskPageBytes(page_id);
    BP_ASSIGN_OR_RETURN(PageView ref, FetchPage(page_id));
    const char* p = ref.data();
    if (NodeType(p) == kTypeInterior) {
      ++stats.interior_pages;
      for (uint32_t i = 0; i < NCells(p); ++i) {
        stack.push_back({ParseInteriorCell(CellBytes(p, i)).child,
                         depth + 1});
      }
      if (Aux(p) != kNoPage) stack.push_back({Aux(p), depth + 1});
    } else if (NodeType(p) == kTypeLeaf) {
      ++stats.leaf_pages;
      for (uint32_t i = 0; i < NCells(p); ++i) {
        LeafCell cell = ParseLeafCell(CellBytes(p, i));
        ++stats.cells;
        stats.key_bytes += cell.key.size();
        stats.value_bytes += cell.total_len;
        if (cell.is_overflow) {
          PageId ov = cell.first_overflow;
          while (ov != kNoPage) {
            ++stats.overflow_pages;
            stats.disk_bytes += pager_.OnDiskPageBytes(ov);
            BP_ASSIGN_OR_RETURN(PageView oref, FetchPage(ov));
            ov = Aux(oref.data());
          }
        }
      }
    } else {
      return Status::Corruption("unexpected page type in tree walk");
    }
  }
  return stats;
}

Status BTree::FreeAllPages() {
  BP_REQUIRE(snap_ == nullptr, "FreeAllPages on a snapshot-bound tree");
  AutoTxn txn(pager_);
  std::vector<PageId> stack{root_};
  while (!stack.empty()) {
    PageId page_id = stack.back();
    stack.pop_back();
    {
      BP_ASSIGN_OR_RETURN(PageRef ref, pager_.Get(page_id));
      const char* p = ref.data();
      if (NodeType(p) == kTypeInterior) {
        for (uint32_t i = 0; i < NCells(p); ++i) {
          stack.push_back(ParseInteriorCell(CellBytes(p, i)).child);
        }
        if (Aux(p) != kNoPage) stack.push_back(Aux(p));
      } else if (NodeType(p) == kTypeLeaf) {
        for (uint32_t i = 0; i < NCells(p); ++i) {
          LeafCell cell = ParseLeafCell(CellBytes(p, i));
          if (cell.is_overflow) stack.push_back(cell.first_overflow);
        }
      } else {
        // Overflow page: continue its chain.
        if (Aux(p) != kNoPage) stack.push_back(Aux(p));
      }
    }
    BP_RETURN_IF_ERROR(pager_.Free(page_id));
  }
  return txn.Commit();
}

}  // namespace bp::storage
