#pragma once
/// \file stage.hpp
/// Stage-specific legality rules, keyed to pipeline position.
///
/// Each flow stage re-expresses the design under a tighter contract; these
/// checks pin the contract down at the boundary where it first holds:
///
/// post-map (restricted-library netlist):
///   map.unmapped-node          a kComb node carries no library cell
///   map.illegal-cell           the cell is outside the architecture's
///                              restricted component library
///   map.cell-function-mismatch the node's function is not in the cell's
///                              via-programmable coverage set
///
/// post-compact / post-buffer (configuration netlist):
///   compact.missing-config     a comb node has neither a config_tag nor an
///                              INV/BUF cell (the only legal free riders)
///   compact.bad-config-tag     config_tag does not name a real ConfigKind
///   compact.unsupported-config the architecture's interconnect cannot form
///                              this configuration
///   compact.config-overflow    the configuration alone exceeds one PLB's
///                              component slots (core::TileStateTable)
///   compact.macro-rep          broken multi-output macro grouping
///
/// post-pack (legalized PLB array):
///   pack.unassigned            a slot-consuming node has no tile
///   pack.tile-bounds           a tile index is outside the grid
///   pack.capacity              a tile's occupants exceed its component slots
///                              (the packer's core::TileStateTable)
///   pack.macro-split           members of one macro landed in several tiles
///
/// post-route (routed PLB array):
///   route.via-budget           a tile's configuration vias plus routing-tap
///                              vias exceed its candidate via sites
///                              (core/vias.cpp potential_via_sites)

#include "core/plb.hpp"
#include "netlist/netlist.hpp"
#include "pack/packer.hpp"
#include "verify/diagnostic.hpp"

namespace vpga::verify {

/// Legality of a technology-mapped netlist against `arch`'s restricted
/// component-cell library.
void check_post_map(const netlist::Netlist& nl, const core::PlbArchitecture& arch,
                    const std::string& stage, VerifyReport& report);

/// Legality of a compacted (configuration-annotated) netlist against the
/// paper's PLB resource model. Also valid post-buffering, which may only add
/// BUF free riders. `tiles` is `arch`'s tile-state table; the overload
/// without it builds one.
void check_post_compact(const netlist::Netlist& nl, const core::PlbArchitecture& arch,
                        const core::TileStateTable& tiles, const std::string& stage,
                        VerifyReport& report);
void check_post_compact(const netlist::Netlist& nl, const core::PlbArchitecture& arch,
                        const std::string& stage, VerifyReport& report);

/// Legality of a packed design: grid bounds, per-tile capacity under the
/// exact resource model, macro co-location. `tiles` as for
/// check_post_compact.
void check_post_pack(const netlist::Netlist& nl, const pack::PackedDesign& packed,
                     const core::PlbArchitecture& arch, const core::TileStateTable& tiles,
                     const std::string& stage, VerifyReport& report);
void check_post_pack(const netlist::Netlist& nl, const pack::PackedDesign& packed,
                     const core::PlbArchitecture& arch, const std::string& stage,
                     VerifyReport& report);

/// Via-budget legality of the routed array: each tile's programmed
/// configuration vias plus its per-net routing taps — one tap-up via at the
/// driver's tile per net that leaves it, one tap-down via per distinct sink
/// tile, however many connections the net serves there — must fit within the
/// tile's candidate via sites.
void check_post_route(const netlist::Netlist& nl, const pack::PackedDesign& packed,
                      const core::PlbArchitecture& arch, const std::string& stage,
                      VerifyReport& report);

}  // namespace vpga::verify
