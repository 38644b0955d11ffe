#pragma once
// In-memory PDN netlist: the list of R / I / V elements plus an interned
// node table.  This is the shared data model between the parser, the golden
// solver, the feature extractor, and the point-cloud encoder.
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "spice/node_name.hpp"

namespace lmmir::spice {

namespace detail {
class SpiceReader;  // the parser (spice/parser.cpp): builds in bulk
}

enum class ElementType { Resistor, CurrentSource, VoltageSource };

/// Index of an interned node within Netlist; kGroundNode marks "0".
using NodeId = std::int32_t;
inline constexpr NodeId kGroundNode = -1;

struct Element {
  ElementType type = ElementType::Resistor;
  std::string name;      // e.g. "R1023" (without leading type letter: "1023")
  NodeId node1 = kGroundNode;
  NodeId node2 = kGroundNode;
  double value = 0.0;    // ohms / amps / volts
};

/// Interned node: parsed coordinates when the name follows the contest
/// grammar.  The spelling lives in the netlist's name arena
/// (Netlist::node_name).
struct Node {
  std::optional<NodeName> parsed;  // nullopt for free-form names
};

class Netlist {
 public:
  /// Content revision key.  Every mutation (interning a new node, adding
  /// an element, rewriting an element value) stamps the netlist with a
  /// fresh value from a process-wide counter, so a given revision value is
  /// assigned to exactly one content snapshot: equal revisions imply equal
  /// content, across distinct Netlist objects (copies carry the revision
  /// of the snapshot they were taken from; mutating a copy re-stamps it).
  /// Caches keyed on the revision (feat::FeatureContext) can therefore
  /// skip re-validating a netlist they have already seen.  A parse stamps
  /// once, when it completes, rather than once per element.
  std::uint64_t revision() const { return revision_; }

  /// Intern a node by raw name; returns kGroundNode for "0".
  NodeId intern_node(std::string_view raw_name);

  /// Look up an interned node id; returns nullopt if never interned.
  std::optional<NodeId> find_node(std::string_view raw_name) const;

  /// Spelling of an interned node (a view into the name arena, valid until
  /// the next node is interned).  Throws std::out_of_range.
  std::string_view node_name(NodeId id) const;

  void add_resistor(std::string_view name, NodeId a, NodeId b, double ohms);
  void add_current_source(std::string_view name, NodeId from, NodeId to,
                          double amps);
  void add_voltage_source(std::string_view name, NodeId plus, NodeId minus,
                          double volts);

  /// Replace an element's value (PDN optimization: wire upsizing rewrites
  /// resistor values in place). Throws std::out_of_range / invalid_argument.
  void set_element_value(std::size_t element_index, double value);

  const std::vector<Element>& elements() const { return elements_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  const Node& node(NodeId id) const { return nodes_.at(static_cast<std::size_t>(id)); }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t element_count() const { return elements_.size(); }
  std::size_t count(ElementType t) const;

  /// Highest metal layer index among parsed nodes (0 when none parse).
  int max_layer() const;

  /// Bounding box over parsed node coordinates, in DBU.
  struct Bounds {
    std::int64_t min_x = 0, min_y = 0, max_x = 0, max_y = 0;
    bool valid = false;
  };
  Bounds bounds() const;

  /// Chip extent in feature-map pixels (ceil(max/µm) + 1 in each axis).
  struct PixelShape {
    std::size_t rows = 0;  // y extent
    std::size_t cols = 0;  // x extent
  };
  PixelShape pixel_shape() const;

  /// Heap footprint of this netlist, O(1): the capacities of every buffer
  /// it owns (elements and their out-of-line names, nodes, name arena,
  /// name offsets, node index) plus the object itself.  Never less than
  /// what is allocated, so cache memory budgets (serve::SessionServer)
  /// cannot under-count.
  std::size_t resident_bytes() const;

 private:
  friend class detail::SpiceReader;

  /// One open-addressing slot of the node index: `id` < 0 marks it empty;
  /// `tag` is the high half of the name's hash, checked before the names.
  struct IndexSlot {
    std::uint32_t tag = 0;
    NodeId id = -1;
  };

  void touch();  // stamp a fresh process-unique revision
  /// Size every buffer for a text of `lines` lines, ahead of a parse.
  void reserve_for_lines(std::size_t lines);
  /// Hash of a node name, with the index slot its lookup starts at
  /// requested into cache: the parser issues this for both endpoints of a
  /// line, then parses the value while the slots load.
  std::uint64_t prefetch_node(std::string_view raw_name) const;
  /// intern_node / add_* without the revision stamp; `hash` is
  /// prefetch_node's result for `raw_name`.
  NodeId intern(std::string_view raw_name, std::uint64_t hash);
  void append(ElementType type, std::string_view name, NodeId a, NodeId b,
              double value);
  /// Slot holding `raw_name`, or the empty slot where it would go.
  std::size_t probe(std::string_view raw_name, std::uint64_t hash) const;
  void grow_index(std::size_t slots);

  std::vector<Element> elements_;
  std::size_t element_name_heap_bytes_ = 0;  // out-of-line Element::name
  std::vector<Node> nodes_;
  std::vector<char> names_;             // every node spelling, back to back
  std::vector<std::size_t> name_ends_;  // node i spans [end(i-1), end(i))
  std::vector<IndexSlot> index_;        // power-of-two size, load <= 1/2
  std::uint64_t revision_ = 0;  // 0 = pristine empty netlist
};

}  // namespace lmmir::spice
