#include "spice/node_name.hpp"

#include <charconv>

#include "util/string_utils.hpp"

namespace lmmir::spice {

std::string_view NodeName::format(char (&buf)[kMaxChars]) const {
  char* p = buf;
  char* const end = buf + kMaxChars;
  *p++ = 'n';
  p = std::to_chars(p, end, net).ptr;
  *p++ = '_';
  *p++ = 'm';
  p = std::to_chars(p, end, layer).ptr;
  *p++ = '_';
  p = std::to_chars(p, end, x).ptr;
  *p++ = '_';
  p = std::to_chars(p, end, y).ptr;
  return {buf, static_cast<std::size_t>(p - buf)};
}

std::string NodeName::to_string() const {
  char buf[kMaxChars];
  return std::string(format(buf));
}

namespace {

// A field as util::parse_long reads it; all-digit fields short enough not
// to overflow (the common case) skip its trim and from_chars.
bool parse_field(std::string_view s, long& out) {
  if (s.empty() || s.size() > 18) return util::parse_long(s, out);
  long v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return util::parse_long(s, out);
    v = v * 10 + (c - '0');
  }
  out = v;
  return true;
}

}  // namespace

bool parse_node_name(std::string_view name, NodeName& out) {
  // Expected shape: n<digits>_m<digits>_<digits>_<digits> — exactly four
  // '_'-separated fields (empty fields count, and are then rejected).
  std::string_view parts[4];
  std::size_t start = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    const std::size_t cut = name.find('_', start);
    if ((cut == std::string_view::npos) != (k == 3)) return false;
    parts[k] = name.substr(start, cut - start);  // npos: to the end
    start = cut + 1;
  }
  if (parts[0].size() < 2 || (parts[0][0] != 'n' && parts[0][0] != 'N'))
    return false;
  if (parts[1].size() < 2 || (parts[1][0] != 'm' && parts[1][0] != 'M'))
    return false;
  long net = 0, layer = 0, x = 0, y = 0;
  if (!parse_field(parts[0].substr(1), net)) return false;
  if (!parse_field(parts[1].substr(1), layer)) return false;
  if (!parse_field(parts[2], x)) return false;
  if (!parse_field(parts[3], y)) return false;
  out.net = static_cast<int>(net);
  out.layer = static_cast<int>(layer);
  out.x = x;
  out.y = y;
  return true;
}

}  // namespace lmmir::spice
