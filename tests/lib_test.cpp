#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "lib/library.hpp"
#include "util/assert.hpp"

namespace mbrc::lib {
namespace {

class DefaultLibrary : public ::testing::Test {
protected:
  Library library = make_default_library();
};

TEST_F(DefaultLibrary, HasEveryFunctionWidthDriveCombination) {
  const DefaultLibraryOptions options;
  for (const RegisterFunction& f : options.functions) {
    const auto widths = library.available_widths(f);
    EXPECT_EQ(widths, (std::vector<int>{1, 2, 4, 8}));
    for (int w : widths) {
      const auto cells = library.cells_for(f, w);
      // 3 drive strengths, plus per-bit-scan variants for scan multibit.
      const std::size_t expected =
          (f.is_scan && w > 1) ? 6u : 3u;
      EXPECT_EQ(cells.size(), expected) << "width " << w;
    }
  }
}

TEST_F(DefaultLibrary, AreaSharingMakesPerBitAreaDecrease) {
  const RegisterFunction plain{};
  double last_per_bit = 1e9;
  for (int w : {1, 2, 4, 8}) {
    const auto cells = library.cells_for(plain, w);
    const RegisterCell* x1 = nullptr;
    for (const RegisterCell* c : cells)
      if (x1 == nullptr || c->drive_resistance > x1->drive_resistance) x1 = c;
    const double per_bit = x1->area_per_bit();
    EXPECT_LT(per_bit, last_per_bit) << "width " << w;
    last_per_bit = per_bit;
  }
}

TEST_F(DefaultLibrary, ClockCapPerBitDecreasesWithWidth) {
  const RegisterFunction plain{};
  double last = 1e9;
  for (int w : {1, 2, 4, 8}) {
    const RegisterCell* cell = library.cells_for(plain, w).front();
    const double per_bit = cell->clock_pin_cap / w;
    EXPECT_LT(per_bit, last);
    last = per_bit;
  }
}

TEST_F(DefaultLibrary, PinGeometryConsistent) {
  for (const RegisterCell& cell : library.registers()) {
    ASSERT_EQ(static_cast<int>(cell.d_pin_offsets.size()), cell.bits);
    ASSERT_EQ(static_cast<int>(cell.q_pin_offsets.size()), cell.bits);
    for (const geom::Point& p : cell.d_pin_offsets) {
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, cell.width + 1e-9);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, cell.height + 1e-9);
    }
    EXPECT_NEAR(cell.width * cell.height, cell.area, 1e-6);
  }
}

TEST_F(DefaultLibrary, LookupByName) {
  const RegisterCell* cell = library.register_by_name("DFFP_B4_X1");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->bits, 4);
  EXPECT_EQ(cell->function, RegisterFunction{});
  EXPECT_EQ(library.register_by_name("NO_SUCH_CELL"), nullptr);
  EXPECT_NE(library.comb_by_name("NAND2_X1"), nullptr);
  EXPECT_EQ(library.comb_by_name("NAND9_X9"), nullptr);
}

TEST_F(DefaultLibrary, DuplicateNameRejected) {
  Library lib;
  RegisterCell cell;
  cell.name = "X";
  cell.bits = 1;
  cell.d_pin_offsets = {{0, 0}};
  cell.q_pin_offsets = {{1, 0}};
  lib.add_register(cell);
  EXPECT_THROW(lib.add_register(cell), util::AssertionError);
}

TEST_F(DefaultLibrary, MappingPrefersStrongEnoughDrive) {
  // Replaced registers' strongest drive is X2 (resistance 1.2): the mapped
  // cell must not be weaker.
  MappingRequest request;
  request.function = RegisterFunction{};
  request.bits = 4;
  request.min_drive_resistance = 1.2;
  const RegisterCell* cell = library.map_register(request);
  ASSERT_NE(cell, nullptr);
  EXPECT_LE(cell->drive_resistance, 1.2 + 1e-9);
  // Among qualifying cells it favors low clock cap -> the weakest
  // qualifying drive (clock cap grows with strength in this library).
  EXPECT_NEAR(cell->drive_resistance, 1.2, 1e-9);
}

TEST_F(DefaultLibrary, MappingFallsBackToStrongestWhenAllTooWeak) {
  MappingRequest request;
  request.function = RegisterFunction{};
  request.bits = 8;
  request.min_drive_resistance = 0.01;  // stronger than anything available
  const RegisterCell* cell = library.map_register(request);
  ASSERT_NE(cell, nullptr);
  // Strongest available X4: resistance 2.4 / 4.
  EXPECT_NEAR(cell->drive_resistance, 0.6, 1e-9);
}

TEST_F(DefaultLibrary, MappingHonorsPerBitScanRequirement) {
  MappingRequest request;
  request.function = RegisterFunction{.is_scan = true};
  request.bits = 4;
  request.min_drive_resistance = 2.4;
  request.needs_per_bit_scan = true;
  const RegisterCell* cell = library.map_register(request);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->scan_style, ScanStyle::kPerBitPins);

  // Without the requirement, the internal-chain variant wins (external scan
  // is penalized, Sec. 4.1).
  request.needs_per_bit_scan = false;
  const RegisterCell* internal = library.map_register(request);
  ASSERT_NE(internal, nullptr);
  EXPECT_EQ(internal->scan_style, ScanStyle::kInternalChain);
}

TEST_F(DefaultLibrary, MappingUnknownWidthReturnsNull) {
  MappingRequest request;
  request.function = RegisterFunction{};
  request.bits = 5;
  EXPECT_EQ(library.map_register(request), nullptr);
}

TEST_F(DefaultLibrary, HasMultibit) {
  EXPECT_TRUE(library.has_multibit(RegisterFunction{}));
  // A function class not in the library at all:
  EXPECT_FALSE(library.has_multibit(RegisterFunction{.is_latch = true}));
}

TEST(LibraryOptions, Width3Variant) {
  DefaultLibraryOptions options;
  options.include_width_3 = true;
  const Library lib = make_default_library(options);
  const auto widths = lib.available_widths(RegisterFunction{});
  EXPECT_EQ(widths, (std::vector<int>{1, 2, 3, 4, 8}));
}

TEST(RegisterFunctionEncoding, DistinctPerFeature) {
  std::set<unsigned> codes;
  for (bool r : {false, true})
    for (bool s : {false, true})
      for (bool e : {false, true})
        for (bool q : {false, true})
          codes.insert(RegisterFunction{r, s, e, q, false}.encode());
  EXPECT_EQ(codes.size(), 16u);
}

TEST(LibraryIndex, CheapestCellIsFirstMinimumInInsertionOrder) {
  // The per-(function, width) index must answer what a scan of
  // registers() in insertion order answers: the first cell of minimum area.
  const auto cell = [](std::string name, int bits, double area,
                       RegisterFunction function = {}) {
    RegisterCell c;
    c.name = std::move(name);
    c.bits = bits;
    c.area = area;
    c.function = function;
    c.d_pin_offsets.assign(static_cast<std::size_t>(bits), {});
    c.q_pin_offsets.assign(static_cast<std::size_t>(bits), {});
    return c;
  };
  Library library;
  library.add_register(cell("W4_A", 4, 9.0));
  library.add_register(cell("W2_A", 2, 5.0));
  library.add_register(cell("W4_B", 4, 7.0));  // new minimum
  library.add_register(cell("W4_C", 4, 7.0));  // tie: the first one stays
  library.add_register(cell("W4_R", 4, 1.0, {.has_reset = true}));
  library.add_register(cell("W2_B", 2, 5.0));  // tie at width 2
  library.add_register(cell("W1_A", 1, 3.0));  // width inserted below

  EXPECT_EQ(library.cheapest_cell({}, 4)->name, "W4_B");
  EXPECT_EQ(library.cheapest_cell({}, 2)->name, "W2_A");
  EXPECT_EQ(library.cheapest_cell({}, 1)->name, "W1_A");
  EXPECT_EQ(library.cheapest_cell({.has_reset = true}, 4)->name, "W4_R");
  EXPECT_EQ(library.cheapest_cell({}, 8), nullptr);
  EXPECT_EQ(library.cheapest_cell({.is_scan = true}, 4), nullptr);
  EXPECT_EQ(library.available_widths({}), (std::vector<int>{1, 2, 4}));

  std::vector<std::string> names;
  for (const RegisterCell* c : library.cells_for({}, 4)) names.push_back(c->name);
  EXPECT_EQ(names, (std::vector<std::string>{"W4_A", "W4_B", "W4_C"}));

  // The default library agrees with a linear scan for every class and width.
  const Library full = make_default_library();
  for (const RegisterFunction& f : DefaultLibraryOptions{}.functions) {
    for (int w : full.available_widths(f)) {
      const RegisterCell* scan = nullptr;
      for (const RegisterCell& c : full.registers())
        if (c.function == f && c.bits == w &&
            (scan == nullptr || c.area < scan->area))
          scan = &c;
      EXPECT_EQ(full.cheapest_cell(f, w), scan) << "width " << w;
    }
  }
}

TEST(LibraryIndex, DriveVariantsWeakestFirst) {
  // Drive resistance descending, then name ascending -- whatever the
  // insertion order. The per-bit-scan twin is a family of its own.
  const RegisterFunction scan{.is_scan = true};
  const auto cell = [&](std::string name, double resistance,
                        ScanStyle style) {
    RegisterCell c;
    c.name = std::move(name);
    c.bits = 2;
    c.function = scan;
    c.scan_style = style;
    c.drive_resistance = resistance;
    c.d_pin_offsets.assign(2, {});
    c.q_pin_offsets.assign(2, {});
    return c;
  };
  Library library;
  library.add_register(cell("SQ_X2", 1.2, ScanStyle::kInternalChain));
  library.add_register(cell("SQ_X1_B", 2.4, ScanStyle::kInternalChain));
  library.add_register(cell("SQ_X4", 0.6, ScanStyle::kInternalChain));
  library.add_register(cell("SQ_X1_A", 2.4, ScanStyle::kInternalChain));
  library.add_register(cell("SQ_X1_PBS", 2.4, ScanStyle::kPerBitPins));

  const auto names = [](const std::vector<const RegisterCell*>& cells) {
    std::vector<std::string> out;
    for (const RegisterCell* c : cells) out.push_back(c->name);
    return out;
  };
  const std::vector<std::string> chain{"SQ_X1_A", "SQ_X1_B", "SQ_X2",
                                       "SQ_X4"};
  EXPECT_EQ(names(library.drive_variants(scan, 2, ScanStyle::kInternalChain)),
            chain);
  EXPECT_EQ(names(library.drive_variants(scan, 2, base_scan_style(scan))),
            chain);
  const RegisterCell& twin = *library.register_by_name("SQ_X1_PBS");
  EXPECT_EQ(names(library.drive_variants(twin)),
            (std::vector<std::string>{"SQ_X1_PBS"}));
  const RegisterCell& x2 = *library.register_by_name("SQ_X2");
  EXPECT_EQ(names(library.drive_variants(x2)), chain);
  EXPECT_FALSE(is_drive_variant(twin, x2));
  EXPECT_TRUE(is_drive_variant(x2, *library.register_by_name("SQ_X4")));
  EXPECT_TRUE(library.drive_variants(scan, 4, ScanStyle::kInternalChain)
                  .empty());
  EXPECT_TRUE(library.drive_variants({}, 2, ScanStyle::kNone).empty());
  EXPECT_EQ(base_scan_style({}), ScanStyle::kNone);

  // In the default library every family's insertion order is already
  // weakest first.
  const Library full = make_default_library();
  for (const RegisterCell& c : full.registers()) {
    std::vector<const RegisterCell*> inserted;
    for (const RegisterCell* v : full.cells_for(c.function, c.bits))
      if (is_drive_variant(*v, c)) inserted.push_back(v);
    EXPECT_EQ(full.drive_variants(c), inserted) << c.name;
  }
}

}  // namespace
}  // namespace mbrc::lib
