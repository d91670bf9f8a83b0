// Unit tests for the exNode and its XML encoding.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "exnode/exnode.hpp"
#include "exnode/xml.hpp"

namespace lon::exnode {
namespace {

ibp::Capability make_cap(const std::string& depot, std::uint64_t alloc,
                         std::uint64_t key = 0xabc) {
  ibp::Capability cap;
  cap.depot = depot;
  cap.allocation = alloc;
  cap.key = key;
  cap.kind = ibp::CapKind::kRead;
  return cap;
}

Replica make_replica(const std::string& depot, std::uint64_t alloc,
                     std::uint64_t alloc_offset = 0) {
  Replica replica;
  replica.read = make_cap(depot, alloc);
  replica.alloc_offset = alloc_offset;
  return replica;
}

// --- xml -----------------------------------------------------------------------

TEST(Xml, RoundTripSimpleTree) {
  XmlElement root;
  root.name = "root";
  root.attributes["a"] = "1";
  XmlElement child;
  child.name = "child";
  child.text = "hello world";
  root.children.push_back(child);

  const XmlElement parsed = parse_xml(to_xml(root));
  EXPECT_EQ(parsed.name, "root");
  EXPECT_EQ(parsed.attr("a"), "1");
  ASSERT_NE(parsed.child("child"), nullptr);
  EXPECT_EQ(parsed.child("child")->text, "hello world");
}

TEST(Xml, EscapesSpecialCharacters) {
  XmlElement root;
  root.name = "r";
  root.attributes["v"] = "a<b&\"c'>d";
  root.text = "x<y>&z";
  const XmlElement parsed = parse_xml(to_xml(root));
  EXPECT_EQ(parsed.attr("v"), "a<b&\"c'>d");
  EXPECT_EQ(parsed.text, "x<y>&z");
}

TEST(Xml, SelfClosingAndNestedElements) {
  const XmlElement parsed =
      parse_xml("<a><b x=\"1\"/><b x=\"2\"/><c><d/></c></a>");
  EXPECT_EQ(parsed.children_named("b").size(), 2u);
  ASSERT_NE(parsed.child("c"), nullptr);
  EXPECT_NE(parsed.child("c")->child("d"), nullptr);
}

TEST(Xml, AcceptsPrologAndWhitespace) {
  const XmlElement parsed =
      parse_xml("<?xml version=\"1.0\"?>\n  <a>\n    <b/>\n  </a>\n");
  EXPECT_EQ(parsed.name, "a");
  EXPECT_EQ(parsed.children.size(), 1u);
}

TEST(Xml, RejectsMalformedDocuments) {
  EXPECT_THROW(parse_xml("<a><b></a></b>"), XmlError);
  EXPECT_THROW(parse_xml("<a>"), XmlError);
  EXPECT_THROW(parse_xml("<a/><b/>"), XmlError);
  EXPECT_THROW(parse_xml("<a attr=1/>"), XmlError);
  EXPECT_THROW(parse_xml("<a>&unknown;</a>"), XmlError);
}

TEST(Xml, MissingAttributeThrows) {
  const XmlElement parsed = parse_xml("<a x=\"1\"/>");
  EXPECT_EQ(parsed.attr("x"), "1");
  EXPECT_THROW((void)parsed.attr("y"), XmlError);
  EXPECT_EQ(parsed.attr_or("y", "dflt"), "dflt");
}

// --- exnode ----------------------------------------------------------------------

TEST(ExNode, ExtentsStaySortedAndQueryable) {
  ExNode node(300);
  node.add_extent({200, 100, {make_replica("d1", 3)}, {}});
  node.add_extent({0, 100, {make_replica("d1", 1)}, {}});
  node.add_extent({100, 100, {make_replica("d2", 2)}, {}});

  ASSERT_EQ(node.extents().size(), 3u);
  EXPECT_EQ(node.extents()[0].offset, 0u);
  EXPECT_EQ(node.extents()[1].offset, 100u);
  EXPECT_EQ(node.extents()[2].offset, 200u);

  ASSERT_NE(node.extent_at(150), nullptr);
  EXPECT_EQ(node.extent_at(150)->offset, 100u);
  EXPECT_EQ(node.extent_at(299)->offset, 200u);
  EXPECT_EQ(node.extent_at(300), nullptr);
}

TEST(ExNode, RejectsOverlapsAndZeroLength) {
  ExNode node(100);
  node.add_extent({0, 50, {}, {}});
  EXPECT_THROW(node.add_extent({25, 50, {}, {}}), std::invalid_argument);
  EXPECT_THROW(node.add_extent({49, 1, {}, {}}), std::invalid_argument);
  EXPECT_THROW(node.add_extent({10, 0, {}, {}}), std::invalid_argument);
  node.add_extent({50, 50, {}, {}});  // exactly adjacent is fine
}

TEST(ExNode, RejectsAnExtentWhoseEndWraps) {
  ExNode node(16);
  EXPECT_THROW(node.add_extent({UINT64_MAX - 3, 16, {}, {}}), std::invalid_argument);
  EXPECT_TRUE(node.extents().empty());
  node.add_extent({UINT64_MAX - 15, 15, {}, {}});  // ends exactly at 2^64 - 1
}

TEST(ExNode, CompletenessRequiresFullCoverageAndReplicas) {
  ExNode node(200);
  EXPECT_FALSE(node.complete());
  node.add_extent({0, 100, {make_replica("d1", 1)}, {}});
  EXPECT_FALSE(node.complete());  // gap at the tail
  node.add_extent({100, 100, {}, {}});
  EXPECT_FALSE(node.complete());  // extent with no replica
  node.add_replica(100, make_replica("d2", 2));
  EXPECT_TRUE(node.complete());
}

TEST(ExNode, AddReplicaFrontMakesItPreferred) {
  ExNode node(100);
  node.add_extent({0, 100, {make_replica("wan", 1)}, {}});
  EXPECT_TRUE(node.add_replica(0, make_replica("lan", 2), /*front=*/true));
  EXPECT_EQ(node.extents()[0].replicas.front().read.depot, "lan");
  EXPECT_FALSE(node.add_replica(50, make_replica("lan", 3)));  // no extent at 50
}

TEST(ExNode, DropDepotRemovesAllItsReplicas) {
  ExNode node(200);
  node.add_extent({0, 100, {make_replica("dead", 1), make_replica("ok", 2)}, {}});
  node.add_extent({100, 100, {make_replica("dead", 3)}, {}});
  EXPECT_EQ(node.drop_depot("dead"), 2u);
  EXPECT_TRUE(node.extents()[1].replicas.empty());
  EXPECT_FALSE(node.complete());
}

TEST(ExNode, DepotsListsUniqueNames) {
  ExNode node(200);
  node.add_extent({0, 100, {make_replica("a", 1), make_replica("b", 2)}, {}});
  node.add_extent({100, 100, {make_replica("a", 3)}, {}});
  EXPECT_EQ(node.depots(), (std::vector<std::string>{"a", "b"}));
}

TEST(ExNode, XmlRoundTripPreservesEverything) {
  ExNode node(1'048'576);
  node.metadata()["dataset"] = "negHip";
  node.metadata()["viewset"] = "3,17";
  node.add_extent({0, 524'288,
                   {make_replica("ca-1", 11, 0), make_replica("ca-2", 12, 4096)}, {}});
  node.add_extent({524'288, 524'288, {make_replica("ca-3", 13)}, {}});

  const ExNode back = ExNode::from_xml(node.to_xml());
  EXPECT_EQ(back, node);
}

TEST(ExNode, XmlRoundTripPreservesManageCapabilities) {
  ExNode node(100);
  Replica owner = make_replica("d1", 5);
  owner.manage = make_cap("d1", 5, 0x777);
  owner.manage->kind = ibp::CapKind::kManage;
  Replica reader = make_replica("d2", 6);  // downloader copy: read-only
  node.add_extent({0, 100, {owner, reader}, {}});

  const ExNode back = ExNode::from_xml(node.to_xml());
  ASSERT_EQ(back.extents().size(), 1u);
  const auto& replicas = back.extents()[0].replicas;
  ASSERT_EQ(replicas.size(), 2u);
  ASSERT_TRUE(replicas[0].manage.has_value());
  EXPECT_EQ(replicas[0].manage->key, 0x777u);
  EXPECT_FALSE(replicas[1].manage.has_value());
  EXPECT_EQ(back, node);
}

TEST(ExNode, XmlRoundTripEmptyNode) {
  ExNode node(0);
  const ExNode back = ExNode::from_xml(node.to_xml());
  EXPECT_EQ(back, node);
  EXPECT_TRUE(back.complete());
}

TEST(ExNode, FromXmlRejectsWrongRoot) {
  EXPECT_THROW(ExNode::from_xml("<inode length=\"1\"/>"), XmlError);
  EXPECT_THROW(ExNode::from_xml("<exnode length=\"8\"><extent offset=\"0\" "
                                "length=\"8\"><replica uri=\"garbage\"/></extent></exnode>"),
               XmlError);
}

// A length-16 exNode with one extent; each argument replaces one attribute's
// text verbatim.
std::string one_extent_xml(const std::string& offset, const std::string& length,
                           const std::string& crc, const std::string& alloc_offset) {
  return "<exnode length=\"16\"><extent offset=\"" + offset + "\" length=\"" + length +
         "\" crc32=\"" + crc + "\"><replica uri=\"" + make_cap("d1", 1).to_uri() +
         "\" alloc_offset=\"" + alloc_offset + "\"/></extent></exnode>";
}

TEST(ExNode, FromXmlAcceptsTheLimitsOfEachNumber) {
  const ExNode node = ExNode::from_xml(one_extent_xml("0", "16", "4294967295",
                                                      "18446744073709551615"));
  ASSERT_EQ(node.extents().size(), 1u);
  EXPECT_EQ(node.extents()[0].checksum, 0xFFFFFFFFu);
  EXPECT_EQ(node.extents()[0].replicas[0].alloc_offset, UINT64_MAX);
  EXPECT_EQ(ExNode::from_xml(one_extent_xml("8", "8", "0", "0")).extents()[0].end(), 16u);
}

TEST(ExNode, FromXmlRejectsCrc32OutsideItsRangeOrWithJunk) {
  for (const char* crc : {"4294967296", "-1", "12abc", "x", "", " 7", "+7"}) {
    EXPECT_THROW(ExNode::from_xml(one_extent_xml("0", "16", crc, "0")), XmlError) << crc;
  }
}

TEST(ExNode, FromXmlRejectsOffsetsAndLengthsWithJunkOrSign) {
  for (const char* bad : {"-1", "8junk", "x", "", "18446744073709551616"}) {
    EXPECT_THROW(ExNode::from_xml(one_extent_xml(bad, "16", "0", "0")), XmlError) << bad;
    EXPECT_THROW(ExNode::from_xml(one_extent_xml("0", bad, "0", "0")), XmlError) << bad;
    EXPECT_THROW(ExNode::from_xml(one_extent_xml("0", "16", "0", bad)), XmlError) << bad;
  }
  EXPECT_THROW(ExNode::from_xml("<exnode length=\"16junk\"/>"), XmlError);
  EXPECT_THROW(ExNode::from_xml("<exnode length=\"-1\"/>"), XmlError);
}

TEST(ExNode, FromXmlRejectsExtentsPastTheNodeLength) {
  EXPECT_THROW(ExNode::from_xml(one_extent_xml("8", "64", "0", "0")), XmlError);
  EXPECT_THROW(ExNode::from_xml(one_extent_xml("8", "9", "0", "0")), XmlError);
  EXPECT_THROW(ExNode::from_xml(one_extent_xml("18446744073709551612", "16", "0", "0")),
               XmlError);
}

TEST(ExNode, FromXmlReportsBadExtentLayoutAsXmlError) {
  EXPECT_THROW(ExNode::from_xml(one_extent_xml("0", "0", "0", "0")), XmlError);
  EXPECT_THROW(ExNode::from_xml("<exnode length=\"16\"><extent offset=\"0\" length=\"8\"/>"
                                "<extent offset=\"4\" length=\"8\"/></exnode>"),
               XmlError);
}

TEST(ExNode, MetadataSurvivesRoundTripWithSpecialChars) {
  ExNode node(10);
  node.metadata()["note"] = "a<b & \"c\"";
  const ExNode back = ExNode::from_xml(node.to_xml());
  EXPECT_EQ(back.metadata().at("note"), "a<b & \"c\"");
}

}  // namespace
}  // namespace lon::exnode
