#include "spice/writer.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace lmmir::spice {

namespace {
char type_letter(ElementType t) {
  switch (t) {
    case ElementType::Resistor: return 'R';
    case ElementType::CurrentSource: return 'I';
    case ElementType::VoltageSource: return 'V';
  }
  return '?';
}

std::string_view node_spelling(const Netlist& nl, NodeId id) {
  if (id == kGroundNode) return "0";
  return nl.node_name(id);
}
}  // namespace

void write_netlist(std::ostream& out, const Netlist& nl,
                   const std::string& title) {
  out << "* " << title << '\n';
  // max_digits10: write -> parse round-trips every double exactly, so a
  // netlist written to disk solves to the same ground truth as the
  // in-memory one.
  out.precision(std::numeric_limits<double>::max_digits10);
  for (const auto& e : nl.elements()) {
    out << type_letter(e.type) << e.name << ' ' << node_spelling(nl, e.node1)
        << ' ' << node_spelling(nl, e.node2) << ' ' << e.value << '\n';
  }
  out << ".end\n";
}

std::string write_netlist_string(const Netlist& nl, const std::string& title) {
  std::ostringstream ss;
  write_netlist(ss, nl, title);
  return ss.str();
}

void write_netlist_file(const std::string& path, const Netlist& nl,
                        const std::string& title) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("spice: cannot open for write " + path);
  write_netlist(f, nl, title);
  if (!f) throw std::runtime_error("spice: write failed for " + path);
}

}  // namespace lmmir::spice
