#include "exnode/exnode.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <set>
#include <stdexcept>

#include "exnode/xml.hpp"

namespace lon::exnode {

namespace {

bool operator_less(const Extent& a, const Extent& b) { return a.offset < b.offset; }

// Strict numeric attributes: the whole value must be decimal digits within
// the range of T, with no sign, junk or wrap. A crc32 read as the wrong value
// would make every download of its extent fail verification as corruption.
template <typename T>
T parse_uint_attr(const XmlElement& e, const std::string& key) {
  const std::string& raw = e.attr(key);
  T value = 0;
  const char* end = raw.data() + raw.size();
  const auto [ptr, ec] = std::from_chars(raw.data(), end, value);
  if (raw.empty() || ec != std::errc{} || ptr != end) {
    throw XmlError("exnode: attribute '" + key + "' is not a decimal integer in [0, " +
                   std::to_string(std::numeric_limits<T>::max()) + "]: \"" + raw + "\"");
  }
  return value;
}

}  // namespace

void ExNode::add_extent(Extent extent) {
  if (extent.length == 0) throw std::invalid_argument("ExNode: zero-length extent");
  if (extent.length > std::numeric_limits<std::uint64_t>::max() - extent.offset) {
    throw std::invalid_argument("ExNode: extent end overflows 64 bits");
  }
  const auto pos = std::lower_bound(extents_.begin(), extents_.end(), extent, operator_less);
  // Overlap checks against neighbours.
  if (pos != extents_.begin()) {
    const Extent& prev = *(pos - 1);
    if (prev.end() > extent.offset) throw std::invalid_argument("ExNode: overlapping extent");
  }
  if (pos != extents_.end()) {
    if (extent.end() > pos->offset) throw std::invalid_argument("ExNode: overlapping extent");
  }
  extents_.insert(pos, std::move(extent));
}

bool ExNode::add_replica(std::uint64_t offset, Replica replica, bool front) {
  for (auto& extent : extents_) {
    if (extent.offset == offset) {
      if (front) {
        extent.replicas.insert(extent.replicas.begin(), std::move(replica));
      } else {
        extent.replicas.push_back(std::move(replica));
      }
      return true;
    }
  }
  return false;
}

std::size_t ExNode::drop_depot(const std::string& depot) {
  std::size_t dropped = 0;
  for (auto& extent : extents_) {
    const auto before = extent.replicas.size();
    std::erase_if(extent.replicas,
                  [&](const Replica& r) { return r.read.depot == depot; });
    dropped += before - extent.replicas.size();
  }
  return dropped;
}

const Extent* ExNode::extent_at(std::uint64_t offset) const {
  for (const auto& extent : extents_) {
    if (offset >= extent.offset && offset < extent.end()) return &extent;
  }
  return nullptr;
}

bool ExNode::complete() const {
  std::uint64_t covered = 0;
  for (const auto& extent : extents_) {
    if (extent.offset != covered) return false;
    if (extent.replicas.empty()) return false;
    covered = extent.end();
  }
  return covered == length_;
}

std::vector<std::string> ExNode::depots() const {
  std::set<std::string> names;
  for (const auto& extent : extents_) {
    for (const auto& replica : extent.replicas) names.insert(replica.read.depot);
  }
  return {names.begin(), names.end()};
}

std::string ExNode::to_xml() const {
  XmlElement root;
  root.name = "exnode";
  root.attributes["length"] = std::to_string(length_);
  for (const auto& [key, value] : metadata_) {
    XmlElement meta;
    meta.name = "metadata";
    meta.attributes["key"] = key;
    meta.text = value;
    root.children.push_back(std::move(meta));
  }
  for (const auto& extent : extents_) {
    XmlElement ext;
    ext.name = "extent";
    ext.attributes["offset"] = std::to_string(extent.offset);
    ext.attributes["length"] = std::to_string(extent.length);
    if (extent.checksum.has_value()) {
      ext.attributes["crc32"] = std::to_string(*extent.checksum);
    }
    for (const auto& replica : extent.replicas) {
      XmlElement rep;
      rep.name = "replica";
      rep.attributes["uri"] = replica.read.to_uri();
      if (replica.manage.has_value()) {
        rep.attributes["manage"] = replica.manage->to_uri();
      }
      rep.attributes["alloc_offset"] = std::to_string(replica.alloc_offset);
      ext.children.push_back(std::move(rep));
    }
    root.children.push_back(std::move(ext));
  }
  return exnode::to_xml(root);
}

ExNode ExNode::from_xml(const std::string& xml) {
  const XmlElement root = parse_xml(xml);
  if (root.name != "exnode") throw XmlError("expected <exnode> root, got <" + root.name + ">");
  ExNode node(parse_uint_attr<std::uint64_t>(root, "length"));
  for (const XmlElement* meta : root.children_named("metadata")) {
    node.metadata()[meta->attr("key")] = meta->text;
  }
  for (const XmlElement* ext : root.children_named("extent")) {
    Extent extent;
    extent.offset = parse_uint_attr<std::uint64_t>(*ext, "offset");
    extent.length = parse_uint_attr<std::uint64_t>(*ext, "length");
    // Subtraction form: offset + length could wrap.
    if (extent.length > node.length() || extent.offset > node.length() - extent.length) {
      throw XmlError("exnode: extent [" + ext->attr("offset") + ", +" + ext->attr("length") +
                     ") ends past the exnode length " + root.attr("length"));
    }
    if (ext->attributes.contains("crc32")) {
      extent.checksum = parse_uint_attr<std::uint32_t>(*ext, "crc32");
    }
    for (const XmlElement* rep : ext->children_named("replica")) {
      auto cap = ibp::Capability::parse(rep->attr("uri"));
      if (!cap) throw XmlError("bad capability uri: " + rep->attr("uri"));
      Replica replica;
      replica.read = *cap;
      const std::string manage_uri = rep->attr_or("manage", "");
      if (!manage_uri.empty()) {
        auto manage = ibp::Capability::parse(manage_uri);
        if (!manage) throw XmlError("bad capability uri: " + manage_uri);
        replica.manage = *manage;
      }
      if (rep->attributes.contains("alloc_offset")) {
        replica.alloc_offset = parse_uint_attr<std::uint64_t>(*rep, "alloc_offset");
      }
      extent.replicas.push_back(std::move(replica));
    }
    try {
      node.add_extent(std::move(extent));
    } catch (const std::invalid_argument& e) {
      throw XmlError(e.what());  // zero-length or overlapping extent
    }
  }
  return node;
}

}  // namespace lon::exnode
