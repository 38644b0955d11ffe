#pragma once
// SPICE PDN netlist parser (ICCAD-2023 contest subset).
//
// Grammar accepted, one element per line:
//   R<name> <node> <node> <ohms>
//   I<name> <node> <node> <amps>      (current flows node1 -> node2)
//   V<name> <node> <node> <volts>
// plus '*' / ';' comments, blank lines, and the directives
// ".title", ".end", ".op" (all ignored).  Element letters are
// case-insensitive; values accept SPICE engineering suffixes
// (f p n u m k meg g t) and plain scientific notation.
//
// The parser makes one pass over the text in place: tokens are views into
// it, values go through std::from_chars, and node names are interned into
// the netlist's name arena.  A parse allocates only the netlist's buffers
// (sized from the line count) and element names too long for
// std::string's inline storage.
#include <istream>
#include <string>
#include <string_view>

#include "spice/netlist.hpp"

namespace lmmir::spice {

struct ParseStats {
  std::size_t lines = 0;
  std::size_t elements = 0;
  std::size_t comments = 0;
  std::size_t directives = 0;
};

/// Parse a numeric literal with optional SPICE engineering suffix.
/// Returns false on malformed input and on a non-finite result (a suffix
/// that overflows the literal, e.g. "1e308k").
bool parse_spice_value(std::string_view token, double& out);

/// Parse netlist text. Throws std::runtime_error with a line number on
/// malformed element lines.
Netlist parse_netlist_string(std::string_view text,
                             ParseStats* stats = nullptr);

/// Parse from a stream / file: reads the whole input, then parses it as
/// parse_netlist_string does.
Netlist parse_netlist_stream(std::istream& in, ParseStats* stats = nullptr);
Netlist parse_netlist_file(const std::string& path,
                           ParseStats* stats = nullptr);

}  // namespace lmmir::spice
