// Cardinality-constrained schema graphs (CSGs), Definition 1/2 of the
// paper, and their instances.
//
// A CSG is a graph whose nodes represent either the tuples of a relation
// ("table nodes") or the distinct values of an attribute ("attribute
// nodes"), and whose relationships connect them. Prescribed cardinalities
// κ on the directed relationships express unique, not-null and foreign
// key constraints plus the two relational conformity rules ("each tuple
// can have at most one value per attribute, and each attribute value must
// be contained in a tuple"). CSGs are deliberately *more* general than
// the relational model: an integrated instance may violate the prescribed
// cardinalities (e.g. two artist values for one record), which is exactly
// what the structure conflict detector measures.

#ifndef EFES_CSG_GRAPH_H_
#define EFES_CSG_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "efes/common/result.h"
#include "efes/csg/cardinality.h"
#include "efes/relational/value.h"

namespace efes {

using NodeId = size_t;
using RelationshipId = size_t;

enum class CsgNodeKind {
  /// Represents the existence of tuples of a relation.
  kTable,
  /// Holds the set of distinct values of an attribute.
  kAttribute,
};

struct CsgNode {
  NodeId id = 0;
  CsgNodeKind kind = CsgNodeKind::kTable;
  /// Owning relation name; for attribute nodes also `attribute` is set.
  std::string relation;
  std::string attribute;
  /// Datatype for attribute nodes; irrelevant for table nodes.
  DataType type = DataType::kText;

  /// "albums" for table nodes, "albums.name" for attribute nodes.
  std::string QualifiedName() const;
};

enum class CsgEdgeKind {
  /// Connects a table node with one of its attribute nodes (solid edge).
  kAttribute,
  /// Links equal elements of two attribute nodes — the representation of
  /// foreign keys (dashed edge in Figure 4).
  kEquality,
};

/// One *directed* relationship. Every conceptual relationship is stored as
/// two directed halves that reference each other through `inverse`, since
/// the paper prescribes independent cardinalities for both directions
/// (e.g. κ(ρ tracks→record) = 1 but κ(ρ record→tracks) = 1..*).
struct CsgRelationship {
  RelationshipId id = 0;
  NodeId from = 0;
  NodeId to = 0;
  CsgEdgeKind kind = CsgEdgeKind::kAttribute;
  Cardinality prescribed;
  RelationshipId inverse = 0;
};

class CsgGraph {
 public:
  CsgGraph() = default;

  NodeId AddTableNode(std::string relation);
  NodeId AddAttributeNode(std::string relation, std::string attribute,
                          DataType type);

  /// Adds the directed pair (from→to with `forward`, to→from with
  /// `backward`) and returns the id of the forward half.
  RelationshipId AddRelationshipPair(NodeId from, NodeId to,
                                     CsgEdgeKind kind,
                                     const Cardinality& forward,
                                     const Cardinality& backward);

  const std::vector<CsgNode>& nodes() const { return nodes_; }
  const std::vector<CsgRelationship>& relationships() const {
    return relationships_;
  }
  const CsgNode& node(NodeId id) const { return nodes_[id]; }
  const CsgRelationship& relationship(RelationshipId id) const {
    return relationships_[id];
  }

  /// Replaces the prescribed cardinality of one directed relationship.
  void SetPrescribed(RelationshipId id, const Cardinality& cardinality);

  Result<NodeId> FindTableNode(std::string_view relation) const;
  Result<NodeId> FindAttributeNode(std::string_view relation,
                                   std::string_view attribute) const;

  /// Directed relationships leaving `node`.
  const std::vector<RelationshipId>& OutgoingOf(NodeId node) const {
    return adjacency_[node];
  }

  /// Human-readable rendering of every node and directed relationship
  /// with its κ — the textual analogue of Figure 4.
  std::string ToText() const;

  /// One-line description like "albums -> albums.name [0..1]".
  std::string DescribeRelationship(RelationshipId id) const;

 private:
  std::vector<CsgNode> nodes_;
  std::vector<CsgRelationship> relationships_;
  std::vector<std::vector<RelationshipId>> adjacency_;
};

/// A CSG instance (Definition 2), dictionary-encoded: the elements of a
/// node are the dense codes 0..count-1 and every directed relationship
/// is a CSR adjacency over those codes. Instances are stored separately
/// from the graph and are keyed purely by ids, so a graph can have many
/// instances.
///
/// Table-node elements are the implicit row indices of their relation.
/// Attribute-node element k is the k-th distinct non-null value of the
/// node's column in first-occurrence order, kept by reference as the row
/// it first occurs in: an instance must not outlive the column storage
/// it was built from.
class CsgInstance {
 public:
  using Code = uint32_t;

  /// The elements of one node.
  struct NodeElements {
    Code count = 0;
    /// The column holding attribute values; null for table nodes, whose
    /// elements decode to their row index as Value::Integer.
    const std::vector<Value>* column = nullptr;
    /// Attribute nodes: the row of each element's first occurrence.
    std::vector<Code> first_rows;
  };

  /// One directed relationship: the links leaving `from`-element e point
  /// at the `to`-elements targets[offsets[e]] .. targets[offsets[e+1]-1].
  /// Default-constructed adjacencies stand for "no links".
  struct Adjacency {
    std::vector<Code> offsets;
    std::vector<Code> targets;
  };

  /// Path degrees split by the side of a prescribed interval they miss.
  struct Defects {
    size_t too_few = 0;
    size_t too_many = 0;
  };

  /// Takes one NodeElements per node of `graph` and one Adjacency per
  /// directed relationship: `links[r]` holds the links of relationship r
  /// (with `offsets` sized to its from node's count + 1), and the two
  /// halves of a pair mirror each other. Missing entries mean no
  /// elements or no links.
  CsgInstance(const CsgGraph& graph, std::vector<NodeElements> nodes,
              std::vector<Adjacency> links);

  size_t ElementCount(NodeId node) const { return nodes_[node].count; }
  size_t LinkCount(RelationshipId rel) const {
    return links_[rel].targets.size();
  }

  /// The value an element code stands for.
  Value ElementValue(NodeId node, Code element) const;

  /// Number of links leaving each element of the relationship's `from`
  /// node, indexed by element code; elements without links have degree
  /// 0 (this is what makes missing mandatory links — NOT NULL
  /// violations — observable).
  std::vector<Code> OutDegrees(const CsgGraph& graph,
                               RelationshipId rel) const;

  /// The tightest interval containing every element's out-degree; 0..0
  /// for relationships whose from node has no elements.
  Cardinality ActualCardinality(const CsgGraph& graph,
                                RelationshipId rel) const;

  /// Number of `from`-elements whose out-degree is not admitted by
  /// `prescribed` — the per-constraint violation count of Table 3.
  size_t CountViolations(const CsgGraph& graph, RelationshipId rel,
                         const Cardinality& prescribed) const;

  /// Composition over a path of directed relationships: for each element
  /// of the path's start node (by code), the number of *distinct*
  /// reachable elements of the end node. Empty for an empty path.
  std::vector<Code> PathOutDegrees(
      const CsgGraph& graph, const std::vector<RelationshipId>& path) const;

  /// The values of the distinct end-node elements reachable from element
  /// `start` of the path's start node, sorted. An empty path yields the
  /// start element's tuple id, Value::Integer(start).
  std::vector<Value> ReachableViaPath(
      const CsgGraph& graph, const std::vector<RelationshipId>& path,
      Code start) const;

  Cardinality ActualPathCardinality(
      const CsgGraph& graph, const std::vector<RelationshipId>& path) const;

  /// Start elements whose path degree falls below / above `prescribed`.
  Defects CountPathDefects(const CsgGraph& graph,
                           const std::vector<RelationshipId>& path,
                           const Cardinality& prescribed) const;

  size_t CountPathViolations(const CsgGraph& graph,
                             const std::vector<RelationshipId>& path,
                             const Cardinality& prescribed) const;

 private:
  std::vector<NodeElements> nodes_;
  std::vector<Adjacency> links_;
};

}  // namespace efes

#endif  // EFES_CSG_GRAPH_H_
