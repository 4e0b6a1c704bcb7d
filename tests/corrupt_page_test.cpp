// Damaged B-tree pages must never make a query read past a page
// buffer. A cleanly closed provenance database has its `prov.nodes`
// leaves edited in place — an impossible cell count, and cell pointers
// past the page or into its header — and is then reopened and queried.
// The query may fail (a Status, or for now a thrown logic_error from a
// cell-parse check); it must not crash, and under AddressSanitizer it
// must not touch a byte outside the page.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "prov/provenance_db.hpp"
#include "sim/scenario.hpp"
#include "storage/db.hpp"
#include "storage/env.hpp"
#include "util/serde.hpp"

namespace bp::prov {
namespace {

using storage::kPageSize;
using storage::PageId;

// B-tree page layout (storage/btree.cpp): type byte (1 leaf, 2
// interior), u16 cell count at 2, u32 next leaf at 8, u16 cell
// pointers from 16; an interior cell is (string separator, u32 child).
constexpr size_t kCountOffset = 2;
constexpr size_t kNextLeafOffset = 8;
constexpr size_t kPointersOffset = 16;

uint16_t GetU16(const std::string& page, size_t off) {
  return static_cast<uint16_t>(static_cast<uint8_t>(page[off]) |
                               (static_cast<uint8_t>(page[off + 1]) << 8));
}
void PutU16(std::string& page, size_t off, uint16_t v) {
  page[off] = static_cast<char>(v & 0xff);
  page[off + 1] = static_cast<char>(v >> 8);
}
uint32_t GetU32(const std::string& page, size_t off) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(page[off + i])) << (8 * i);
  }
  return v;
}

class CorruptPageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options_.db.env = &env_;
    // Raw checkpoint slots, so the test can edit page bytes in place.
    options_.db.compression.mode =
        storage::compress::CompressionOptions::Mode::kOff;
    {
      auto db = ProvenanceDb::Open("corrupt.db", options_);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      sim::ScenarioBuilder s;
      uint64_t prev = 0;
      for (int i = 0; i < 400; ++i) {
        prev = s.Visit(1, "http://filler.example/" + std::to_string(i),
                       "filler page " + std::to_string(i),
                       prev == 0 ? capture::NavigationAction::kTyped
                                 : capture::NavigationAction::kLink,
                       prev);
      }
      uint64_t search = s.Search(1, "rosebud", prev);
      s.Visit(1, "https://search.example/results?q=rosebud",
              "rosebud - search results",
              capture::NavigationAction::kSearchResult, 0, search);
      ASSERT_TRUE((*db)->IngestAll(s.events()).ok());
      ASSERT_TRUE((*db)->Search("rosebud").ok());  // builds the text index
      ASSERT_TRUE((*db)->Close().ok());
    }
    // The first two leaves of the node table, left to right.
    auto db = storage::Db::Open("corrupt.db", options_.db);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto tree = (*db)->OpenTree("prov.nodes");
    ASSERT_TRUE(tree.ok());
    PageId page_id = (*tree)->root();
    std::string page = ReadPage(page_id);
    while (page[0] == 2) {
      const size_t off = GetU16(page, kPointersOffset);
      util::Reader r(std::string_view(page).substr(off));
      r.ReadString();
      page_id = r.ReadU32();
      page = ReadPage(page_id);
    }
    ASSERT_EQ(page[0], 1) << "leftmost descent must end at a leaf";
    first_leaf_ = page_id;
    second_leaf_ = GetU32(page, kNextLeafOffset);
    ASSERT_NE(second_leaf_, 0u) << "history too small for two leaves";
    clean_ = env_.SnapshotAll();
  }

  std::string ReadPage(PageId id) {
    auto file = env_.Open("corrupt.db");
    std::string page;
    EXPECT_TRUE(file.ok() &&
                (*file)->Read(uint64_t{id} * kPageSize, kPageSize, &page).ok());
    return page;
  }

  void EditPage(PageId id, const std::function<void(std::string&)>& edit) {
    env_.RestoreAll(clean_);
    std::string page = ReadPage(id);
    edit(page);
    auto file = env_.Open("corrupt.db");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Write(uint64_t{id} * kPageSize, page).ok());
  }

  // Opens the damaged file and runs queries that scan every node (the
  // time-context interval build) and expand the graph (contextual
  // search). Returns how many of them reported the damage, by a
  // non-Ok status or a throw.
  int QueriesThatReportDamage() {
    int reported = 0;
    try {
      auto db = ProvenanceDb::Open("corrupt.db", options_);
      if (!db.ok()) return 1;
      try {
        if (!(*db)->TimeContext("rosebud", "filler").ok()) ++reported;
      } catch (const std::logic_error&) {
        ++reported;
      }
      try {
        if (!(*db)->Search("rosebud").ok()) ++reported;
      } catch (const std::logic_error&) {
        ++reported;
      }
    } catch (const std::logic_error&) {
      ++reported;
    }
    return reported;
  }

  storage::MemEnv env_;
  ProvenanceDb::Options options_;
  std::map<std::string, std::string> clean_;
  PageId first_leaf_ = 0;
  PageId second_leaf_ = 0;
};

TEST_F(CorruptPageTest, CellCountBeyondThePageStaysInsideIt) {
  EditPage(first_leaf_,
           [](std::string& page) { PutU16(page, kCountOffset, 0xffff); });
  // The pointers past the real cells lie in zeroed free space, so the
  // first of them is a malformed cell.
  EXPECT_GT(QueriesThatReportDamage(), 0);
}

TEST_F(CorruptPageTest, CellPointerPastThePageIsMalformed) {
  EditPage(second_leaf_,
           [](std::string& page) { PutU16(page, kPointersOffset, 0xfff0); });
  EXPECT_GT(QueriesThatReportDamage(), 0);
}

TEST_F(CorruptPageTest, CellPointerIntoTheHeaderIsMalformed) {
  EditPage(second_leaf_,
           [](std::string& page) { PutU16(page, kPointersOffset, 4); });
  EXPECT_GT(QueriesThatReportDamage(), 0);
}

}  // namespace
}  // namespace bp::prov
