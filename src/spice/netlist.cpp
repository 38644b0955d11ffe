#include "spice/netlist.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace lmmir::spice {

namespace {
// Process-wide revision source: each mutation event gets a unique value,
// which is what makes Netlist::revision() a content key (equal revisions
// can only come from copies of the same snapshot).
std::atomic<std::uint64_t> g_netlist_revision{0};

// Longest Element::name kept inside the std::string object itself.
const std::size_t kInlineNameChars = std::string().capacity();

std::string_view name_at(const std::vector<char>& names,
                         const std::vector<std::size_t>& ends,
                         std::size_t i) {
  const std::size_t begin = i == 0 ? 0 : ends[i - 1];
  return {names.data() + begin, ends[i] - begin};
}

std::uint64_t load_word(const char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

// Node-name hash for the open-addressing index: 8 bytes per step (the
// last step re-reads the final 8 bytes rather than a partial word), then
// the splitmix64 finalizer so both the low bits (slot) and the high half
// (tag) are well mixed.  The length is mixed in first, so the overlapped
// bytes cannot make two names of different lengths collide systematically.
std::uint64_t hash_name(std::string_view s) {
  const char* p = s.data();
  const std::size_t n = s.size();
  auto step = [](std::uint64_t h, std::uint64_t w) {
    h = (h ^ w) * 0x9FB21C651E98DF25ull;
    return h ^ (h >> 29);
  };
  std::uint64_t h = 0x9E3779B97F4A7C15ull ^ n;
  if (n >= 8) {
    for (std::size_t i = 0; i + 8 < n; i += 8) h = step(h, load_word(p + i));
    h = step(h, load_word(p + n - 8));
  } else {
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < n; ++i)
      w |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
    h = step(h, w);
  }
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}
}  // namespace

void Netlist::touch() {
  revision_ = 1 + g_netlist_revision.fetch_add(1, std::memory_order_relaxed);
}

void Netlist::reserve_for_lines(std::size_t lines) {
  // Every element takes a line; a mesh PDN has fewer nodes than elements
  // (about half as many), and a contest node spelling is about 20
  // characters.  The index starts at half load for `lines / 2` nodes and
  // grows past that.
  elements_.reserve(lines);
  nodes_.reserve(lines);
  name_ends_.reserve(lines);
  names_.reserve(lines * 20);
  std::size_t slots = 16;
  while (slots < lines) slots *= 2;
  if (slots > index_.size()) grow_index(slots);
}

std::string_view Netlist::node_name(NodeId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size())
    throw std::out_of_range("Netlist::node_name: no node " +
                            std::to_string(id));
  return name_at(names_, name_ends_, static_cast<std::size_t>(id));
}

std::size_t Netlist::probe(std::string_view raw_name,
                           std::uint64_t hash) const {
  const std::size_t mask = index_.size() - 1;
  const auto tag = static_cast<std::uint32_t>(hash >> 32);
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const IndexSlot& s = index_[i];
    if (s.id < 0) return i;
    if (s.tag == tag &&
        name_at(names_, name_ends_, static_cast<std::size_t>(s.id)) ==
            raw_name)
      return i;
  }
}

void Netlist::grow_index(std::size_t slots) {
  index_.assign(slots, IndexSlot{});
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const std::uint64_t h = hash_name(name_at(names_, name_ends_, id));
    std::size_t i = h & (slots - 1);
    while (index_[i].id >= 0) i = (i + 1) & (slots - 1);
    index_[i] = {static_cast<std::uint32_t>(h >> 32), static_cast<NodeId>(id)};
  }
}

std::uint64_t Netlist::prefetch_node(std::string_view raw_name) const {
  const std::uint64_t h = hash_name(raw_name);
  if (!index_.empty()) __builtin_prefetch(&index_[h & (index_.size() - 1)]);
  return h;
}

NodeId Netlist::intern(std::string_view raw_name, std::uint64_t h) {
  if (is_ground(raw_name)) return kGroundNode;
  if (2 * (nodes_.size() + 1) > index_.size())
    grow_index(std::max<std::size_t>(16, 2 * index_.size()));
  IndexSlot& slot = index_[probe(raw_name, h)];
  if (slot.id >= 0) return slot.id;
  const NodeId id = static_cast<NodeId>(nodes_.size());
  names_.insert(names_.end(), raw_name.begin(), raw_name.end());
  name_ends_.push_back(names_.size());
  Node& n = nodes_.emplace_back();
  NodeName parsed;
  if (parse_node_name(raw_name, parsed)) n.parsed = parsed;
  slot = {static_cast<std::uint32_t>(h >> 32), id};
  return id;
}

void Netlist::append(ElementType type, std::string_view name, NodeId a,
                     NodeId b, double value) {
  const Element& e =
      elements_.emplace_back(Element{type, std::string(name), a, b, value});
  if (e.name.capacity() > kInlineNameChars)
    element_name_heap_bytes_ += e.name.capacity() + 1;
}

NodeId Netlist::intern_node(std::string_view raw_name) {
  const std::size_t before = nodes_.size();
  const NodeId id = intern(raw_name, hash_name(raw_name));
  if (nodes_.size() != before) touch();
  return id;
}

std::optional<NodeId> Netlist::find_node(std::string_view raw_name) const {
  if (is_ground(raw_name)) return kGroundNode;
  if (index_.empty()) return std::nullopt;
  const IndexSlot& slot = index_[probe(raw_name, hash_name(raw_name))];
  if (slot.id < 0) return std::nullopt;
  return slot.id;
}

void Netlist::add_resistor(std::string_view name, NodeId a, NodeId b,
                           double ohms) {
  touch();
  append(ElementType::Resistor, name, a, b, ohms);
}

void Netlist::add_current_source(std::string_view name, NodeId from,
                                 NodeId to, double amps) {
  touch();
  append(ElementType::CurrentSource, name, from, to, amps);
}

void Netlist::add_voltage_source(std::string_view name, NodeId plus,
                                 NodeId minus, double volts) {
  touch();
  append(ElementType::VoltageSource, name, plus, minus, volts);
}

void Netlist::set_element_value(std::size_t element_index, double value) {
  Element& e = elements_.at(element_index);
  if (e.type == ElementType::Resistor && value <= 0.0)
    throw std::invalid_argument("set_element_value: non-positive resistance");
  touch();
  e.value = value;
}

std::size_t Netlist::count(ElementType t) const {
  return static_cast<std::size_t>(
      std::count_if(elements_.begin(), elements_.end(),
                    [t](const Element& e) { return e.type == t; }));
}

int Netlist::max_layer() const {
  int layer = 0;
  for (const auto& n : nodes_)
    if (n.parsed) layer = std::max(layer, n.parsed->layer);
  return layer;
}

Netlist::Bounds Netlist::bounds() const {
  Bounds b;
  for (const auto& n : nodes_) {
    if (!n.parsed) continue;
    if (!b.valid) {
      b.min_x = b.max_x = n.parsed->x;
      b.min_y = b.max_y = n.parsed->y;
      b.valid = true;
    } else {
      b.min_x = std::min(b.min_x, n.parsed->x);
      b.max_x = std::max(b.max_x, n.parsed->x);
      b.min_y = std::min(b.min_y, n.parsed->y);
      b.max_y = std::max(b.max_y, n.parsed->y);
    }
  }
  return b;
}

Netlist::PixelShape Netlist::pixel_shape() const {
  const Bounds b = bounds();
  PixelShape s;
  if (!b.valid) return s;
  s.cols = static_cast<std::size_t>(b.max_x / kDbuPerMicron) + 1;
  s.rows = static_cast<std::size_t>(b.max_y / kDbuPerMicron) + 1;
  return s;
}

std::size_t Netlist::resident_bytes() const {
  return sizeof(Netlist) + elements_.capacity() * sizeof(Element) +
         element_name_heap_bytes_ + nodes_.capacity() * sizeof(Node) +
         names_.capacity() + name_ends_.capacity() * sizeof(std::size_t) +
         index_.capacity() * sizeof(IndexSlot);
}

}  // namespace lmmir::spice
