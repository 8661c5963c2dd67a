#include "efes/csg/builder.h"

#include <cstdint>
#include <limits>
#include <unordered_map>

#include "efes/common/clock.h"
#include "efes/common/metrics.h"

namespace efes {

namespace {

/// Ids of the forward (table->attribute) relationship per attribute, plus
/// the equality relationships, so the instance builder can attach links.
struct GraphLayout {
  // (relation, attribute index) -> forward relationship id.
  std::unordered_map<std::string, std::vector<RelationshipId>>
      attribute_relationships;
  // One entry per single-column FK: child attr node, parent attr node,
  // forward equality relationship id.
  struct EqualityEdge {
    NodeId child_attribute;
    NodeId parent_attribute;
    RelationshipId relationship;
  };
  std::vector<EqualityEdge> equalities;
};

CsgGraph BuildGraphWithLayout(const Database& database,
                              GraphLayout* layout) {
  const Schema& schema = database.schema();
  CsgGraph graph;

  std::unordered_map<std::string, NodeId> table_nodes;
  // relation -> attribute name -> node id
  std::unordered_map<std::string, std::unordered_map<std::string, NodeId>>
      attribute_nodes;

  for (const RelationDef& rel : schema.relations()) {
    NodeId table = graph.AddTableNode(rel.name());
    table_nodes[rel.name()] = table;
    std::vector<RelationshipId>& rel_ids =
        layout->attribute_relationships[rel.name()];
    for (const AttributeDef& attr : rel.attributes()) {
      NodeId attribute =
          graph.AddAttributeNode(rel.name(), attr.name, attr.type);
      attribute_nodes[rel.name()][attr.name] = attribute;

      Cardinality forward = schema.IsNotNullable(rel.name(), attr.name)
                                ? Cardinality::Exactly(1)
                                : Cardinality::Optional();
      Cardinality backward = schema.IsUniqueAttribute(rel.name(), attr.name)
                                 ? Cardinality::Exactly(1)
                                 : Cardinality::AtLeast(1);
      rel_ids.push_back(graph.AddRelationshipPair(
          table, attribute, CsgEdgeKind::kAttribute, forward, backward));
    }
  }

  // Foreign keys become equality relationships between attribute nodes.
  // Composite FKs are represented column-wise (the collateral operator of
  // the algebra recovers the n-ary semantics).
  for (const Constraint& c : schema.constraints()) {
    if (c.kind != ConstraintKind::kForeignKey) continue;
    for (size_t i = 0; i < c.attributes.size(); ++i) {
      NodeId child = attribute_nodes[c.relation][c.attributes[i]];
      NodeId parent =
          attribute_nodes[c.referenced_relation][c.referenced_attributes[i]];
      RelationshipId rel_id = graph.AddRelationshipPair(
          child, parent, CsgEdgeKind::kEquality, Cardinality::Exactly(1),
          Cardinality::Optional());
      layout->equalities.push_back(
          GraphLayout::EqualityEdge{child, parent, rel_id});
    }
  }

  return graph;
}

using Code = CsgInstance::Code;
constexpr Code kNoCode = std::numeric_limits<Code>::max();

/// A flat open-addressing hash set of element codes. It stores codes and
/// 32 bits of their hashes, never values: the caller resolves a code to
/// its Value for the equality probe, so encoding a column copies no Value.
class CodeSet {
 public:
  explicit CodeSet(size_t max_size) {
    size_t capacity = 16;
    while (capacity < 2 * max_size) capacity <<= 1;
    slots_.assign(capacity, Slot{0, kNoCode});
    mask_ = capacity - 1;
  }

  /// The code equal to `value` (Value::operator==), or kNoCode after
  /// inserting `code_if_absent` for it. `value_of` maps a stored code to
  /// its Value.
  template <typename ValueOf>
  Code FindOrInsert(const Value& value, Code code_if_absent,
                    const ValueOf& value_of) {
    const size_t hash = value.Hash();
    Slot& slot = Probe(value, hash, value_of);
    if (slot.code != kNoCode) return slot.code;
    slot = Slot{Tag(hash), code_if_absent};
    return kNoCode;
  }

  template <typename ValueOf>
  Code Find(const Value& value, const ValueOf& value_of) {
    return Probe(value, value.Hash(), value_of).code;
  }

 private:
  struct Slot {
    uint32_t tag;
    Code code;
  };

  static uint32_t Tag(size_t hash) {
    return static_cast<uint32_t>(static_cast<uint64_t>(hash) >> 32);
  }

  template <typename ValueOf>
  Slot& Probe(const Value& value, size_t hash, const ValueOf& value_of) {
    const uint32_t tag = Tag(hash);
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.code == kNoCode) return slot;
      if (slot.tag == tag && value_of(slot.code) == value) return slot;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
};

/// Dictionary-encodes `column` into the elements of the attribute node
/// `rel.to` (first-occurrence order) and fills the CSR halves of the
/// table->attribute relationship `rel` and its inverse.
void EncodeColumn(const std::vector<Value>& column,
                  const CsgRelationship& rel,
                  std::vector<CsgInstance::NodeElements>* nodes,
                  std::vector<CsgInstance::Adjacency>* links) {
  CsgInstance::NodeElements& elements = (*nodes)[rel.to];
  elements.column = &column;
  auto value_of = [&](Code code) -> const Value& {
    return column[elements.first_rows[code]];
  };
  const size_t rows = column.size();
  std::vector<Code> row_codes(rows, kNoCode);
  CodeSet dictionary(rows);
  CsgInstance::Adjacency& forward = (*links)[rel.id];
  forward.offsets.assign(rows + 1, 0);
  forward.targets.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    const Value& cell = column[r];
    if (!cell.is_null()) {
      Code next = static_cast<Code>(elements.first_rows.size());
      Code code = dictionary.FindOrInsert(cell, next, value_of);
      if (code == kNoCode) {
        code = next;
        elements.first_rows.push_back(static_cast<Code>(r));
      }
      row_codes[r] = code;
      forward.targets.push_back(code);
    }
    forward.offsets[r + 1] = static_cast<Code>(forward.targets.size());
  }
  elements.count = static_cast<Code>(elements.first_rows.size());

  // attribute -> table: a counting sort of the rows by code, so each
  // value's tuples stay in row order.
  CsgInstance::Adjacency& backward = (*links)[rel.inverse];
  backward.offsets.assign(elements.count + size_t{1}, 0);
  for (Code code : forward.targets) ++backward.offsets[code + 1];
  for (size_t e = 0; e < elements.count; ++e) {
    backward.offsets[e + 1] += backward.offsets[e];
  }
  backward.targets.resize(forward.targets.size());
  std::vector<Code> cursor(backward.offsets.begin(),
                           backward.offsets.end() - 1);
  for (size_t r = 0; r < rows; ++r) {
    if (row_codes[r] != kNoCode) {
      backward.targets[cursor[row_codes[r]]++] = static_cast<Code>(r);
    }
  }
}

/// Fills the equality relationship `rel` (child ==> parent) and its
/// inverse from the code-to-code map between the two dictionaries: child
/// element c links to the parent element with an equal value, if any.
void LinkEqualElements(const CsgInstance::NodeElements& child,
                       const CsgInstance::NodeElements& parent,
                       const CsgRelationship& rel,
                       std::vector<CsgInstance::Adjacency>* links) {
  auto parent_value = [&](Code code) -> const Value& {
    return (*parent.column)[parent.first_rows[code]];
  };
  CodeSet parent_codes(parent.count);
  for (Code p = 0; p < parent.count; ++p) {
    parent_codes.FindOrInsert(parent_value(p), p, parent_value);
  }
  std::vector<Code> child_of_parent(parent.count, kNoCode);
  CsgInstance::Adjacency& forward = (*links)[rel.id];
  forward.offsets.assign(child.count + size_t{1}, 0);
  for (Code c = 0; c < child.count; ++c) {
    const Value& value = (*child.column)[child.first_rows[c]];
    Code p = parent_codes.Find(value, parent_value);
    if (p != kNoCode) {
      forward.targets.push_back(p);
      child_of_parent[p] = c;
    }
    forward.offsets[c + 1] = static_cast<Code>(forward.targets.size());
  }
  CsgInstance::Adjacency& backward = (*links)[rel.inverse];
  backward.offsets.assign(parent.count + size_t{1}, 0);
  for (Code p = 0; p < parent.count; ++p) {
    if (child_of_parent[p] != kNoCode) {
      backward.targets.push_back(child_of_parent[p]);
    }
    backward.offsets[p + 1] = static_cast<Code>(backward.targets.size());
  }
}

}  // namespace

CsgGraph BuildCsgGraph(const Database& database) {
  GraphLayout layout;
  return BuildGraphWithLayout(database, &layout);
}

Csg BuildCsg(const Database& database) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static Histogram& build_ms = metrics.GetHistogram("csg.build.ms");
  static Gauge& node_count = metrics.GetGauge("csg.build.nodes");
  static Counter& element_count = metrics.GetCounter("csg.build.elements");
  static Counter& link_count = metrics.GetCounter("csg.build.links");
  const Clock& clock = *Clock::Default();
  const int64_t start_nanos = clock.NowNanos();

  GraphLayout layout;
  CsgGraph graph = BuildGraphWithLayout(database, &layout);
  std::vector<CsgInstance::NodeElements> nodes(graph.nodes().size());
  std::vector<CsgInstance::Adjacency> links(graph.relationships().size());

  for (const Table& table : database.tables()) {
    auto table_node = graph.FindTableNode(table.name());
    if (!table_node.ok()) continue;
    nodes[*table_node].count = static_cast<Code>(table.row_count());
    const std::vector<RelationshipId>& attr_rels =
        layout.attribute_relationships[table.name()];
    for (size_t c = 0; c < table.column_count(); ++c) {
      EncodeColumn(table.column(c), graph.relationship(attr_rels[c]), &nodes,
                   &links);
    }
  }

  // Equality links: each child attribute value links to the equal parent
  // value when it exists (dangling FK values simply lack the link, which
  // surfaces as a violation of the prescribed κ = 1).
  for (const GraphLayout::EqualityEdge& eq : layout.equalities) {
    LinkEqualElements(nodes[eq.child_attribute], nodes[eq.parent_attribute],
                      graph.relationship(eq.relationship), &links);
  }

  CsgInstance instance(graph, std::move(nodes), std::move(links));
  uint64_t elements = 0;
  for (NodeId node = 0; node < graph.nodes().size(); ++node) {
    elements += instance.ElementCount(node);
  }
  uint64_t link_total = 0;
  for (RelationshipId rel = 0; rel < graph.relationships().size(); ++rel) {
    link_total += instance.LinkCount(rel);
  }
  build_ms.Observe(static_cast<double>(clock.NowNanos() - start_nanos) / 1e6);
  node_count.Set(static_cast<double>(graph.nodes().size()));
  element_count.Increment(elements);
  link_count.Increment(link_total);
  return Csg(std::move(graph), std::move(instance));
}

}  // namespace efes
