// Strongly-typed integer ids for netlist entities. Cells, pins and nets live
// in flat vectors inside Design; ids are indices wrapped in distinct types
// so that a PinId cannot be passed where a CellId is expected.
#pragma once

#include <cstdint>
#include <functional>

namespace mbrc::netlist {

template <class Tag>
struct Id {
  std::int32_t index = -1;

  constexpr Id() = default;
  constexpr explicit Id(std::int32_t i) : index(i) {}

  constexpr bool valid() const { return index >= 0; }
  friend constexpr bool operator==(const Id&, const Id&) = default;
  friend constexpr auto operator<=>(const Id&, const Id&) = default;
};

using CellId = Id<struct CellTag>;
using PinId = Id<struct PinTag>;
using NetId = Id<struct NetTag>;

}  // namespace mbrc::netlist

template <class Tag>
struct std::hash<mbrc::netlist::Id<Tag>> {
  std::size_t operator()(const mbrc::netlist::Id<Tag>& id) const noexcept {
    return std::hash<std::int32_t>{}(id.index);
  }
};
