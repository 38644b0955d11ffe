// spice: node-name grammar, value suffixes, parser, writer round trip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <string_view>

#include "spice/parser.hpp"
#include "spice/writer.hpp"

#include "gen/began.hpp"
#include "gen/suite.hpp"
#include "util/rng.hpp"

// glibc reports the bytes malloc has handed out; the sanitizers replace
// malloc, so the heap probe runs only in plain glibc builds.
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#include <malloc.h>
#define SPICE_TEST_HEAP_PROBE 1
#endif

namespace {

using namespace lmmir::spice;

TEST(NodeName, FormatAndParse) {
  NodeName n{1, 4, 108000, 26000};
  EXPECT_EQ(n.to_string(), "n1_m4_108000_26000");
  NodeName back;
  ASSERT_TRUE(parse_node_name(n.to_string(), back));
  EXPECT_EQ(back, n);
}

TEST(NodeName, RejectsMalformed) {
  NodeName out;
  EXPECT_FALSE(parse_node_name("", out));
  EXPECT_FALSE(parse_node_name("n1_m1_3", out));
  EXPECT_FALSE(parse_node_name("x1_m1_3_4", out));
  EXPECT_FALSE(parse_node_name("n1_x1_3_4", out));
  EXPECT_FALSE(parse_node_name("n1_m1_a_4", out));
  EXPECT_FALSE(parse_node_name("n1_m1_3_4_5", out));
}

TEST(NodeName, FormatWritesIntoCallerBuffer) {
  char buf[NodeName::kMaxChars];
  const NodeName extreme{-2147483647 - 1, -2147483647 - 1,
                         -9223372036854775807 - 1, -9223372036854775807 - 1};
  EXPECT_EQ(extreme.format(buf),
            "n-2147483648_m-2147483648_-9223372036854775808_"
            "-9223372036854775808");
  NodeName back;
  ASSERT_TRUE(parse_node_name(extreme.format(buf), back));
  EXPECT_EQ(back, extreme);
  EXPECT_EQ(NodeName({3, 2, 0, 7}).format(buf), "n3_m2_0_7");
}

TEST(NodeName, FieldEdgeCases) {
  NodeName out;
  EXPECT_TRUE(parse_node_name("N2_M3_-5_6", out));
  EXPECT_EQ(out, NodeName({2, 3, -5, 6}));
  EXPECT_TRUE(parse_node_name("n1_m1_0012_34", out));  // leading zeros
  EXPECT_EQ(out.x, 12);
  EXPECT_TRUE(parse_node_name("n1_m1_123456789012345678_1", out));
  EXPECT_EQ(out.x, 123456789012345678);
  EXPECT_FALSE(parse_node_name("n1_m1_99999999999999999999_1", out));  // overflow
  EXPECT_FALSE(parse_node_name("n1_m1_+3_4", out));
  EXPECT_FALSE(parse_node_name("n1_m1__4", out));
  EXPECT_FALSE(parse_node_name("n_m1_3_4", out));
  EXPECT_FALSE(parse_node_name("n1_m1_3_", out));
  EXPECT_FALSE(parse_node_name("_n1_m1_3_4", out));
}

TEST(NodeName, Ground) {
  EXPECT_TRUE(is_ground("0"));
  EXPECT_FALSE(is_ground("00"));
  EXPECT_FALSE(is_ground("n0_m0_0_0"));
}

// The text is a string_view, not a const char*: gtest prints a pointer
// parameter with its address, and ctest names each case by its printed
// value, so a pointer would give the cases a new name on every run.
class SpiceValue
    : public ::testing::TestWithParam<std::pair<std::string_view, double>> {};

TEST_P(SpiceValue, ParsesSuffix) {
  const auto [text, expected] = GetParam();
  double v = 0;
  ASSERT_TRUE(parse_spice_value(text, v)) << text;
  EXPECT_DOUBLE_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Suffixes, SpiceValue,
    ::testing::Values(std::make_pair("1.5", 1.5), std::make_pair("2k", 2e3),
                      std::make_pair("3meg", 3e6), std::make_pair("4u", 4e-6),
                      std::make_pair("5m", 5e-3), std::make_pair("6n", 6e-9),
                      std::make_pair("7p", 7e-12), std::make_pair("1e-3", 1e-3),
                      std::make_pair("2.5E2", 250.0),
                      std::make_pair("8G", 8e9)));

TEST(SpiceValueNegative, RejectsGarbage) {
  double v;
  EXPECT_FALSE(parse_spice_value("", v));
  EXPECT_FALSE(parse_spice_value("abc", v));
  EXPECT_FALSE(parse_spice_value("1.5q", v));
  EXPECT_FALSE(parse_spice_value("k", v));
}

TEST(SpiceValueNegative, RejectsSuffixOverflow) {
  double v;
  EXPECT_FALSE(parse_spice_value("1e308k", v));  // 1e311: past DBL_MAX
  EXPECT_FALSE(parse_spice_value("-1e307meg", v));
  EXPECT_TRUE(parse_spice_value("1e305k", v));  // 1e308 still fits
  EXPECT_TRUE(std::isfinite(v));
}

TEST(Parser, ParsesBasicNetlist) {
  const std::string text = R"(* tiny PDN
R1 n1_m1_0_0 n1_m1_1000_0 0.5
R2 n1_m1_1000_0 n1_m2_1000_0 2.0
I1 n1_m1_0_0 0 1m
V1 n1_m2_1000_0 0 1.1
.end
)";
  ParseStats stats;
  const Netlist nl = parse_netlist_string(text, &stats);
  EXPECT_EQ(stats.elements, 4u);
  EXPECT_EQ(stats.comments, 1u);
  EXPECT_EQ(nl.node_count(), 3u);
  EXPECT_EQ(nl.count(ElementType::Resistor), 2u);
  EXPECT_EQ(nl.count(ElementType::CurrentSource), 1u);
  EXPECT_EQ(nl.count(ElementType::VoltageSource), 1u);
  EXPECT_EQ(nl.max_layer(), 2);
  const auto shape = nl.pixel_shape();
  EXPECT_EQ(shape.cols, 2u);  // x up to 1000 DBU = pixel 1
  EXPECT_EQ(shape.rows, 1u);
}

TEST(Parser, CaseInsensitiveAndDirectives) {
  const std::string text = ".title x\nr1 a b 1k\ni2 a 0 2m\nv3 b 0 1.0\n.op\n.end\nGARBAGE AFTER END\n";
  const Netlist nl = parse_netlist_string(text);
  EXPECT_EQ(nl.element_count(), 3u);  // .end stops parsing
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    parse_netlist_string("R1 a b 1.0\nR2 a b\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Parser, RejectsBadElements) {
  EXPECT_THROW(parse_netlist_string("C1 a b 1.0\n"), std::runtime_error);
  EXPECT_THROW(parse_netlist_string("R1 a b -2\n"), std::runtime_error);  // R<=0
  EXPECT_THROW(parse_netlist_string("R1 a b xyz\n"), std::runtime_error);
}

TEST(Parser, FreeFormNodesSupported) {
  const Netlist nl = parse_netlist_string("R1 vdd_pin n1_m1_0_0 1.0\nV1 vdd_pin 0 1.1\n");
  ASSERT_TRUE(nl.find_node("vdd_pin").has_value());
  EXPECT_FALSE(nl.node(*nl.find_node("vdd_pin")).parsed.has_value());
  EXPECT_TRUE(nl.node(*nl.find_node("n1_m1_0_0")).parsed.has_value());
}

TEST(Writer, RoundTripPreservesEverything) {
  const std::string text =
      "R7 n1_m1_0_0 n1_m1_2000_0 0.125\n"
      "I3 n1_m1_2000_0 0 0.0015\n"
      "V9 n1_m3_2000_0 0 1.05\n";
  const Netlist nl = parse_netlist_string(text);
  const std::string written = write_netlist_string(nl, "round trip");
  const Netlist back = parse_netlist_string(written);
  ASSERT_EQ(back.element_count(), nl.element_count());
  for (std::size_t i = 0; i < nl.elements().size(); ++i) {
    EXPECT_EQ(back.elements()[i].type, nl.elements()[i].type);
    EXPECT_EQ(back.elements()[i].name, nl.elements()[i].name);
    EXPECT_DOUBLE_EQ(back.elements()[i].value, nl.elements()[i].value);
  }
  EXPECT_EQ(back.node_count(), nl.node_count());
}

TEST(Writer, RoundTripsTheLargestSuffixedValues) {
  // 1e305k is 1e308, just below DBL_MAX; 1e307k would be 1e310, which the
  // parser rejects rather than reading as inf that the writer cannot spell.
  const Netlist nl = parse_netlist_string(
      "R1 n1_0_0 n1_1_0 1e305k\nI1 n1_1_0 0 1.7e305k\n");
  const Netlist back = parse_netlist_string(write_netlist_string(nl, "big"));
  ASSERT_EQ(back.element_count(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(std::isfinite(back.elements()[i].value));
    EXPECT_EQ(back.elements()[i].value, nl.elements()[i].value);
  }
  EXPECT_THROW(parse_netlist_string("R1 n1_0_0 n1_1_0 1e307k\n"),
               std::runtime_error);
}

TEST(Writer, GeneratedSuiteRoundTripsStructurally) {
  // The corpus-generation path the golden solver consumes: every generated
  // netlist must survive write -> re-parse with its structure intact
  // (node/element counts, element types/names/values, endpoint names).
  lmmir::gen::SuiteOptions sopts;
  sopts.scale = 0.045;  // small dies: keeps the batch fast
  const auto configs = lmmir::gen::fake_training_suite(3, 0xC0FFEE, sopts);
  for (const auto& cfg : configs) {
    SCOPED_TRACE(cfg.name);
    const Netlist nl = lmmir::gen::generate_pdn(cfg);
    const std::string written = write_netlist_string(nl, cfg.name);
    const Netlist back = parse_netlist_string(written);
    ASSERT_EQ(back.node_count(), nl.node_count());
    ASSERT_EQ(back.element_count(), nl.element_count());
    for (auto t : {ElementType::Resistor, ElementType::CurrentSource,
                   ElementType::VoltageSource})
      EXPECT_EQ(back.count(t), nl.count(t));
    auto node_name = [](const Netlist& n, NodeId id) {
      return id == kGroundNode ? std::string_view("0") : n.node_name(id);
    };
    for (std::size_t i = 0; i < nl.elements().size(); ++i) {
      const auto& a = nl.elements()[i];
      const auto& b = back.elements()[i];
      ASSERT_EQ(b.type, a.type) << "element " << i;
      EXPECT_EQ(b.name, a.name) << "element " << i;
      EXPECT_DOUBLE_EQ(b.value, a.value) << "element " << i;
      EXPECT_EQ(node_name(back, b.node1), node_name(nl, a.node1));
      EXPECT_EQ(node_name(back, b.node2), node_name(nl, a.node2));
    }
    // Second round trip is a fixed point: identical text.
    EXPECT_EQ(write_netlist_string(back, cfg.name), written);
  }
}

TEST(Parser, FuzzNeverCrashesOnlyThrows) {
  // Random token soup must either parse or throw std::runtime_error —
  // never crash or loop.
  lmmir::util::Rng rng(0xF022);
  const char* vocab[] = {"R1", "I2", "V3", "n1_m1_0_0", "n1_m2_5_5", "0",
                         "1.5", "abc", "-2", "1k", ".end", "*", "", "R",
                         "n1_m1_x_y", "1e999"};
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const int lines = rng.randint(1, 6);
    for (int l = 0; l < lines; ++l) {
      const int toks = rng.randint(0, 5);
      for (int t = 0; t < toks; ++t) {
        text += vocab[rng.randint(0, 15)];
        text += ' ';
      }
      text += '\n';
    }
    try {
      const Netlist nl = parse_netlist_string(text);
      (void)nl.node_count();
    } catch (const std::runtime_error&) {
      // acceptable outcome for malformed input
    }
  }
  SUCCEED();
}

// --- Single-pass parser: exactness, layout, errors, ownership, fuzzing ---

std::vector<lmmir::gen::GeneratorConfig> small_generated_suites() {
  lmmir::gen::SuiteOptions sopts;
  sopts.scale = 0.045;
  auto configs = lmmir::gen::fake_training_suite(3, 0xC0FFEE, sopts);
  for (auto& cfg : lmmir::gen::real_training_suite(2, 0xBEEF, sopts))
    configs.push_back(std::move(cfg));
  return configs;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Parser, GeneratedSuitesParseBitwiseExact) {
  // write -> parse reproduces the generated netlist exactly: every value
  // bit for bit, every node spelling and its decoded coordinates.
  for (const auto& cfg : small_generated_suites()) {
    SCOPED_TRACE(cfg.name);
    const Netlist nl = lmmir::gen::generate_pdn(cfg);
    const std::string written = write_netlist_string(nl, cfg.name);
    ParseStats stats;
    const Netlist back = parse_netlist_string(written, &stats);
    EXPECT_EQ(stats.elements, nl.element_count());
    EXPECT_EQ(stats.comments, 1u);    // the title line
    EXPECT_EQ(stats.directives, 1u);  // .end
    EXPECT_EQ(stats.lines, nl.element_count() + 2);
    ASSERT_EQ(back.node_count(), nl.node_count());
    for (NodeId id = 0; id < static_cast<NodeId>(nl.node_count()); ++id) {
      const auto found = back.find_node(nl.node_name(id));
      ASSERT_TRUE(found.has_value()) << nl.node_name(id);
      EXPECT_EQ(back.node_name(*found), nl.node_name(id));
      EXPECT_EQ(back.node(*found).parsed, nl.node(id).parsed);
    }
    ASSERT_EQ(back.element_count(), nl.element_count());
    std::size_t value_mismatches = 0, endpoint_mismatches = 0;
    for (std::size_t i = 0; i < nl.element_count(); ++i) {
      const Element& a = nl.elements()[i];
      const Element& b = back.elements()[i];
      ASSERT_EQ(b.type, a.type) << "element " << i;
      ASSERT_EQ(b.name, a.name) << "element " << i;
      if (!same_bits(a.value, b.value)) ++value_mismatches;
      for (const auto& [na, nb] : {std::pair{a.node1, b.node1},
                                   std::pair{a.node2, b.node2}}) {
        if ((na == kGroundNode) != (nb == kGroundNode) ||
            (na != kGroundNode && back.node_name(nb) != nl.node_name(na)))
          ++endpoint_mismatches;
      }
    }
    EXPECT_EQ(value_mismatches, 0u);
    EXPECT_EQ(endpoint_mismatches, 0u);
    EXPECT_EQ(back.max_layer(), nl.max_layer());
    EXPECT_EQ(back.pixel_shape().rows, nl.pixel_shape().rows);
    EXPECT_EQ(back.pixel_shape().cols, nl.pixel_shape().cols);
  }
}

TEST(Parser, StreamAndFileMatchString) {
  const Netlist nl = lmmir::gen::generate_pdn(small_generated_suites()[0]);
  const std::string text = write_netlist_string(nl, "io");
  ParseStats from_string, from_stream, from_file;
  const Netlist a = parse_netlist_string(text, &from_string);
  std::istringstream in(text);
  const Netlist b = parse_netlist_stream(in, &from_stream);
  const std::string path = testing::TempDir() + "lmmir_test_parse.sp";
  write_netlist_file(path, nl, "io");
  const Netlist c = parse_netlist_file(path, &from_file);
  std::remove(path.c_str());
  for (const ParseStats* s : {&from_stream, &from_file}) {
    EXPECT_EQ(s->lines, from_string.lines);
    EXPECT_EQ(s->elements, from_string.elements);
    EXPECT_EQ(s->comments, from_string.comments);
    EXPECT_EQ(s->directives, from_string.directives);
  }
  EXPECT_EQ(write_netlist_string(b, "io"), text);
  EXPECT_EQ(write_netlist_string(c, "io"), text);
  (void)a;
}

TEST(Parser, LineLayoutAndStats) {
  // CRLF endings, tabs and other blanks, blank and comment lines, an
  // upper-case .END, and text after it (never read).
  const std::string text =
      "* title\r\n"
      "\r\n"
      "\tR1\tn1_m1_0_0\t n1_m1_1000_0 \v0.5\r\n"
      "  ; note\r\n"
      "   \f \r\n"
      "I2 n1_m1_0_0 0 1m\r\n"
      ".op\r\n"
      ".END\r\n"
      "R3 a b garbage\r\n";
  ParseStats stats;
  const Netlist nl = parse_netlist_string(text, &stats);
  EXPECT_EQ(stats.lines, 8u);  // through the .END line
  EXPECT_EQ(stats.elements, 2u);
  EXPECT_EQ(stats.comments, 2u);
  EXPECT_EQ(stats.directives, 2u);
  EXPECT_EQ(write_netlist_string(nl, "t"),
            "* t\nR1 n1_m1_0_0 n1_m1_1000_0 0.5\nI2 n1_m1_0_0 0 0.001\n.end\n");
  ASSERT_EQ(nl.node_count(), 2u);
  EXPECT_EQ(nl.node_name(1), "n1_m1_1000_0");  // no '\r' kept
  EXPECT_EQ(nl.node(1).parsed, NodeName({1, 1, 1000, 0}));
}

TEST(Parser, FinalLineWithoutNewline) {
  ParseStats stats;
  const Netlist nl = parse_netlist_string("R1 a b 1\nV1 a 0 1.1", &stats);
  EXPECT_EQ(stats.lines, 2u);
  EXPECT_EQ(stats.elements, 2u);
  ASSERT_EQ(nl.element_count(), 2u);
  EXPECT_TRUE(same_bits(nl.elements()[1].value, 1.1));

  parse_netlist_string("", &stats);
  EXPECT_EQ(stats.lines, 0u);
  parse_netlist_string(std::string_view(), &stats);  // null data()
  EXPECT_EQ(stats.lines, 0u);
  parse_netlist_string("\n", &stats);
  EXPECT_EQ(stats.lines, 1u);
  EXPECT_EQ(stats.elements, 0u);
  parse_netlist_string("* only a comment", &stats);
  EXPECT_EQ(stats.lines, 1u);
  EXPECT_EQ(stats.comments, 1u);
}

TEST(Parser, EndDirectiveNeedsTheWholeWord) {
  ParseStats stats;
  const Netlist nl = parse_netlist_string(
      ".ends\nR1 a b 1\n.eNd\tjunk\nR2 a b 1\n", &stats);
  EXPECT_EQ(nl.element_count(), 1u);
  EXPECT_EQ(stats.directives, 2u);
  EXPECT_EQ(stats.lines, 3u);
}

std::string parse_error(const std::string& text) {
  try {
    parse_netlist_string(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "(no error)";
}

TEST(Parser, RejectPathsReportTextAndLine) {
  EXPECT_EQ(parse_error("R1 a b\n"),
            "spice parse error at line 1: expected 4 tokens, got 3");
  EXPECT_EQ(parse_error("* c\n\nR1 a b 1 2\n"),
            "spice parse error at line 3: expected 4 tokens, got 5");
  EXPECT_EQ(parse_error("R1 a b 1\r\nR2 a b xyz\r\n"),
            "spice parse error at line 2: bad value 'xyz'");
  EXPECT_EQ(parse_error("R1 a b 1.5q"),
            "spice parse error at line 1: bad value '1.5q'");
  EXPECT_EQ(parse_error("R0 n1_0_0 n1_1_0 1\nR1 n1_0_0 n1_1_0 1e308k\n"),
            "spice parse error at line 2: bad value '1e308k'");
  EXPECT_EQ(parse_error("V1 a 0 1\nr2 a b -2\n"),
            "spice parse error at line 2: non-positive resistance");
  EXPECT_EQ(parse_error("R1 a b 0\n"),
            "spice parse error at line 1: non-positive resistance");
  EXPECT_EQ(parse_error(".title x\nC1 a b 1.0\n"),
            "spice parse error at line 2: unsupported element 'C'");
  EXPECT_EQ(parse_error("x1 a b 1.0\n"),
            "spice parse error at line 1: unsupported element 'x'");
  EXPECT_THROW(parse_netlist_file(testing::TempDir() + "no/such/file.sp"),
               std::runtime_error);
}

TEST(Netlist, CopyOwnsItsNames) {
  auto original = std::make_unique<Netlist>(parse_netlist_string(
      "R1 n1_m1_0_0 n1_m1_1000_0 0.5\nR2 n1_m1_1000_0 free_node 2\n"));
  const Netlist copy = *original;
  EXPECT_EQ(copy.revision(), original->revision());
  // Grow the original's arena and index well past their first buffers.
  for (int i = 0; i < 2000; ++i)
    original->intern_node("n1_m2_" + std::to_string(i) + "_0");
  original->set_element_value(0, 9.0);
  EXPECT_NE(copy.revision(), original->revision());
  original.reset();
  ASSERT_EQ(copy.node_count(), 3u);
  EXPECT_EQ(copy.node_name(0), "n1_m1_0_0");
  EXPECT_EQ(copy.node_name(1), "n1_m1_1000_0");
  EXPECT_EQ(copy.node_name(2), "free_node");
  EXPECT_EQ(copy.find_node("free_node"), std::optional<NodeId>(2));
  EXPECT_FALSE(copy.find_node("n1_m2_5_0").has_value());
  EXPECT_EQ(copy.elements()[0].value, 0.5);
  EXPECT_THROW((void)copy.node_name(3), std::out_of_range);
  EXPECT_THROW((void)copy.node_name(kGroundNode), std::out_of_range);
}

TEST(Netlist, InternGrowsIndexAndFindsEveryName) {
  Netlist nl;
  std::vector<NodeId> ids;
  for (int i = 0; i < 5000; ++i)
    ids.push_back(nl.intern_node("n1_m1_" + std::to_string(i * 250) + "_7"));
  ASSERT_EQ(nl.node_count(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    const std::string name = "n1_m1_" + std::to_string(i * 250) + "_7";
    EXPECT_EQ(ids[static_cast<std::size_t>(i)], i);
    ASSERT_EQ(nl.intern_node(name), i);  // dedup after every growth
    EXPECT_EQ(nl.node_name(i), name);
    EXPECT_EQ(nl.node(i).parsed, NodeName({1, 1, i * 250, 7}));
  }
  EXPECT_EQ(nl.node_count(), 5000u);
  // Names that differ only past the first word or in length stay apart.
  EXPECT_NE(nl.intern_node("n1_m1_0_7x"), nl.intern_node("n1_m1_0_7"));
  EXPECT_NE(nl.intern_node("a"), nl.intern_node("aa"));
  EXPECT_EQ(nl.intern_node(std::string("a\0b", 3)),
            nl.intern_node(std::string("a\0b", 3)));
  EXPECT_NE(nl.intern_node(std::string("a\0b", 3)), nl.intern_node("a"));
}

TEST(Netlist, RevisionStampedOncePerParse) {
  const std::string text = "R1 a b 1\nI1 a 0 1m\nV1 b 0 1.1\n";
  const Netlist first = parse_netlist_string(text);
  const Netlist second = parse_netlist_string(text);
  EXPECT_NE(first.revision(), 0u);
  EXPECT_NE(second.revision(), 0u);
  EXPECT_NE(first.revision(), second.revision());
  // Nothing parsed: the pristine revision, as for a default netlist.
  EXPECT_EQ(parse_netlist_string("* empty\n.end\n").revision(), 0u);

  Netlist edited = second;
  EXPECT_EQ(edited.revision(), second.revision());
  edited.set_element_value(0, 2.0);
  EXPECT_NE(edited.revision(), second.revision());
  EXPECT_NE(edited.revision(), first.revision());
  const std::uint64_t after_edit = edited.revision();
  edited.intern_node("a");  // already interned: content unchanged
  EXPECT_EQ(edited.revision(), after_edit);
  edited.intern_node("c");
  EXPECT_NE(edited.revision(), after_edit);
}

TEST(Netlist, ResidentBytesCoversEveryBuffer) {
  // resident_bytes() must never under-count what the netlist owns: its
  // element and node vectors, element names stored out of line, node
  // spellings, and at least one index entry per node.
  auto owned_lower_bound = [](const Netlist& nl) {
    std::size_t bytes = nl.elements().capacity() * sizeof(Element) +
                        nl.nodes().capacity() * sizeof(Node);
    const std::size_t inline_chars = std::string().capacity();
    for (const Element& e : nl.elements())
      if (e.name.capacity() > inline_chars) bytes += e.name.capacity() + 1;
    for (NodeId id = 0; id < static_cast<NodeId>(nl.node_count()); ++id)
      bytes += nl.node_name(id).size() + sizeof(NodeId);
    return bytes;
  };
  Netlist nl = lmmir::gen::generate_pdn(small_generated_suites()[0]);
  EXPECT_GE(nl.resident_bytes(), owned_lower_bound(nl));
  std::string text = write_netlist_string(nl, "bytes");
  text += "Ran_element_name_well_past_the_inline_buffer n1_m1_0_0 0 1\n";
  text += "Ianother_element_name_long_enough_for_the_heap n1_m1_0_0 0 1m\n";
  const Netlist parsed = parse_netlist_string(text);
  EXPECT_GE(parsed.resident_bytes(), owned_lower_bound(parsed));
  const Netlist copy = parsed;
  EXPECT_GE(copy.resident_bytes(), owned_lower_bound(copy));
  for (int i = 0; i < 3000; ++i) {
    nl.intern_node("free_" + std::to_string(i));
    nl.add_resistor("a_long_resistor_name_" + std::to_string(i), 0, 1, 1.0);
  }
  EXPECT_GE(nl.resident_bytes(), owned_lower_bound(nl));
  EXPECT_GE(Netlist().resident_bytes(), sizeof(Netlist));
}

TEST(Netlist, ResidentBytesCoversTheHeap) {
#ifndef SPICE_TEST_HEAP_PROBE
  GTEST_SKIP() << "needs glibc's mallinfo2 and its malloc";
#else
  // What malloc handed out while the netlist was built and still holds,
  // less per-block header and rounding (under 32 B a block, a page for
  // mmapped vectors) and small blocks parked in the thread cache, never exceeds
  // resident_bytes().  A term missing from the O(1) sum (long element
  // names, arena, offsets, index) is larger than that slack.
  auto heap_in_use = [] {
    const struct mallinfo2 m = mallinfo2();
    return m.uordblks + m.hblkhd;
  };
  const std::size_t before = heap_in_use();
  auto nl = std::make_unique<Netlist>();
  for (int i = 0; i < 20000; ++i) {
    const NodeId a = nl->intern_node("n1_m1_" + std::to_string(i) + "_0");
    if (i % 10 == 0)
      nl->add_resistor(std::string(1000, 'r') + std::to_string(i), a,
                       kGroundNode, 1.0);
  }
  const std::size_t held = heap_in_use() - before;
  const std::size_t slack =
      32 * (nl->element_count() + 8) + 8 * 4096 + (64 << 10);
  EXPECT_GE(nl->resident_bytes() + slack, held);

  const std::string text = write_netlist_string(*nl, "heap");
  nl.reset();
  const std::size_t before_parse = heap_in_use();
  const Netlist parsed = parse_netlist_string(text);
  EXPECT_GE(parsed.resident_bytes() + slack, heap_in_use() - before_parse);
#endif
}

TEST(Parser, ByteFuzzParsesToAFixedPointOrThrows) {
  // Truncate or corrupt a real generated netlist byte by byte.  Every
  // input must either throw std::runtime_error or parse to a netlist whose
  // write -> parse -> write is a fixed point.
  const Netlist nl = lmmir::gen::generate_pdn(small_generated_suites()[3]);
  const std::string base = write_netlist_string(nl, "fuzz");
  lmmir::util::Rng rng(0xB17E5);
  const char specials[] = {'\n', '\r', '\t', ' ', '\0', '*', ';', '.', '_',
                           '-', 'e', 'k', 'm', '0', 'R', 'C'};
  std::size_t parsed = 0, rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string text = base;
    if (trial % 4 == 0) {
      text.resize(static_cast<std::size_t>(
          rng.randint(0, static_cast<int>(base.size()))));
    } else {
      const int flips = rng.randint(1, 4);
      for (int f = 0; f < flips; ++f) {
        const auto at = static_cast<std::size_t>(
            rng.randint(0, static_cast<int>(text.size()) - 1));
        text[at] = rng.randint(0, 1)
                       ? specials[rng.randint(0, sizeof specials - 1)]
                       : static_cast<char>(rng.randint(0, 255));
      }
    }
    try {
      const Netlist got = parse_netlist_string(text);
      const std::string once = write_netlist_string(got, "fuzz");
      const std::string twice =
          write_netlist_string(parse_netlist_string(once), "fuzz");
      ASSERT_EQ(twice, once) << "trial " << trial;
      ++parsed;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Netlist, InternDeduplicates) {
  Netlist nl;
  const NodeId a = nl.intern_node("n1_m1_0_0");
  const NodeId b = nl.intern_node("n1_m1_0_0");
  EXPECT_EQ(a, b);
  EXPECT_EQ(nl.intern_node("0"), kGroundNode);
  EXPECT_EQ(nl.node_count(), 1u);
}

TEST(Netlist, BoundsOverParsedNodes) {
  Netlist nl;
  nl.intern_node("n1_m1_1000_2000");
  nl.intern_node("n1_m2_5000_500");
  nl.intern_node("free_node");
  const auto b = nl.bounds();
  ASSERT_TRUE(b.valid);
  EXPECT_EQ(b.min_x, 1000);
  EXPECT_EQ(b.max_x, 5000);
  EXPECT_EQ(b.min_y, 500);
  EXPECT_EQ(b.max_y, 2000);
}

}  // namespace
