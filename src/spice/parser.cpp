#include "spice/parser.hpp"

#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/string_utils.hpp"

namespace lmmir::spice {

namespace {

char lower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

bool iequals(std::string_view a, std::string_view lower_b) {
  if (a.size() != lower_b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (lower(a[i]) != lower_b[i]) return false;
  return true;
}

// Whitespace inside a line: std::isspace minus the line break.
bool is_blank(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r' && c != '\n');
}

}  // namespace

bool parse_spice_value(std::string_view token, double& out) {
  if (token.empty()) return false;
  // Split off a trailing alphabetic suffix, if any.
  std::size_t num_end = token.size();
  while (num_end > 0 &&
         std::isalpha(static_cast<unsigned char>(token[num_end - 1])))
    --num_end;
  const std::string_view suffix = token.substr(num_end);
  double base = 0.0;
  if (!util::parse_double(token.substr(0, num_end), base)) return false;

  double mult = 1.0;
  if (suffix.empty()) mult = 1.0;
  else if (iequals(suffix, "f")) mult = 1e-15;
  else if (iequals(suffix, "p")) mult = 1e-12;
  else if (iequals(suffix, "n")) mult = 1e-9;
  else if (iequals(suffix, "u")) mult = 1e-6;
  else if (iequals(suffix, "m")) mult = 1e-3;
  else if (iequals(suffix, "k")) mult = 1e3;
  else if (iequals(suffix, "meg") || iequals(suffix, "x")) mult = 1e6;
  else if (iequals(suffix, "g")) mult = 1e9;
  else if (iequals(suffix, "t")) mult = 1e12;
  else return false;

  // A suffix can push a finite literal past DBL_MAX (1e308k); inf is no
  // value the writer could spell back, so it fails like any bad literal.
  out = base * mult;
  return std::isfinite(out);
}

namespace detail {

/// The single-pass parser.  A friend of Netlist so that it can size the
/// netlist's buffers up front and build it without a revision stamp per
/// element: the finished netlist is stamped once.
class SpiceReader {
 public:
  explicit SpiceReader(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  Netlist read(ParseStats* stats) {
    Netlist nl;
    nl.reserve_for_lines(count_lines());
    ParseStats local;
    while (p_ != end_) {
      ++local.lines;
      skip_blanks();
      if (at_line_end()) {
        next_line();
        continue;
      }
      if (*p_ == '*' || *p_ == ';') {
        ++local.comments;
        next_line();
        continue;
      }
      if (*p_ == '.') {
        ++local.directives;
        if (iequals(token(), ".end")) break;
        next_line();  // .title / .op / anything else: ignored
        continue;
      }
      element(nl, local.lines);
      ++local.elements;
    }
    if (!nl.elements_.empty()) nl.touch();
    if (stats) *stats = local;
    return nl;
  }

 private:
  [[noreturn]] static void fail(std::size_t lineno, const std::string& what) {
    throw std::runtime_error("spice parse error at line " +
                             std::to_string(lineno) + ": " + what);
  }

  /// The first line break at or after `p`, or end_.
  const char* find_break(const char* p) const {
    if (p == end_) return end_;  // also keeps a null data() from memchr
    const void* at = std::memchr(p, '\n', static_cast<std::size_t>(end_ - p));
    return at ? static_cast<const char*>(at) : end_;
  }
  /// Lines in the text: an upper bound on its element count.
  std::size_t count_lines() const {
    std::size_t lines = 1;
    for (const char* p = find_break(p_); p != end_; p = find_break(p + 1))
      ++lines;
    return lines;
  }
  bool at_line_end() const { return p_ == end_ || *p_ == '\n'; }
  void skip_blanks() {
    while (p_ != end_ && is_blank(*p_)) ++p_;
  }
  void next_line() {
    p_ = find_break(p_);
    if (p_ != end_) ++p_;
  }
  /// The token at p_ (which is past any blanks); leaves p_ after it.
  std::string_view token() {
    const char* start = p_;
    while (!at_line_end() && !is_blank(*p_)) ++p_;
    return {start, static_cast<std::size_t>(p_ - start)};
  }

  /// One element line: exactly four tokens, `<kind><name> <node> <node>
  /// <value>`.  Consumes the line, newline included.
  void element(Netlist& nl, std::size_t lineno) {
    std::string_view tok[4];
    std::size_t ntok = 0;
    for (; !at_line_end(); skip_blanks()) {
      const std::string_view t = token();
      if (ntok < 4) tok[ntok] = t;
      ++ntok;
    }
    if (p_ != end_) ++p_;
    if (ntok != 4)
      fail(lineno, "expected 4 tokens, got " + std::to_string(ntok));
    const std::uint64_t hash_a = nl.prefetch_node(tok[1]);
    const std::uint64_t hash_b = nl.prefetch_node(tok[2]);
    double value = 0.0;
    if (!parse_spice_value(tok[3], value))
      fail(lineno, "bad value '" + std::string(tok[3]) + "'");
    const NodeId a = nl.intern(tok[1], hash_a);
    const NodeId b = nl.intern(tok[2], hash_b);
    ElementType type;
    switch (lower(tok[0][0])) {
      case 'r':
        if (value <= 0.0) fail(lineno, "non-positive resistance");
        type = ElementType::Resistor;
        break;
      case 'i':
        type = ElementType::CurrentSource;
        break;
      case 'v':
        type = ElementType::VoltageSource;
        break;
      default:
        fail(lineno, std::string("unsupported element '") + tok[0][0] + "'");
    }
    nl.append(type, tok[0].substr(1), a, b, value);
  }

  const char* p_;
  const char* const end_;
};

}  // namespace detail

Netlist parse_netlist_string(std::string_view text, ParseStats* stats) {
  return detail::SpiceReader(text).read(stats);
}

Netlist parse_netlist_stream(std::istream& in, ParseStats* stats) {
  std::string text;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0)
    text.append(buf, static_cast<std::size_t>(in.gcount()));
  return parse_netlist_string(text, stats);
}

Netlist parse_netlist_file(const std::string& path, ParseStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("spice: cannot open " + path);
  return parse_netlist_stream(in, stats);
}

}  // namespace lmmir::spice
