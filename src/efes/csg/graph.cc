#include "efes/csg/graph.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "efes/common/metrics.h"

namespace efes {

std::string CsgNode::QualifiedName() const {
  if (kind == CsgNodeKind::kTable) return relation;
  return relation + "." + attribute;
}

NodeId CsgGraph::AddTableNode(std::string relation) {
  CsgNode node;
  node.id = nodes_.size();
  node.kind = CsgNodeKind::kTable;
  node.relation = std::move(relation);
  nodes_.push_back(std::move(node));
  adjacency_.emplace_back();
  return nodes_.back().id;
}

NodeId CsgGraph::AddAttributeNode(std::string relation,
                                  std::string attribute, DataType type) {
  CsgNode node;
  node.id = nodes_.size();
  node.kind = CsgNodeKind::kAttribute;
  node.relation = std::move(relation);
  node.attribute = std::move(attribute);
  node.type = type;
  nodes_.push_back(std::move(node));
  adjacency_.emplace_back();
  return nodes_.back().id;
}

RelationshipId CsgGraph::AddRelationshipPair(NodeId from, NodeId to,
                                             CsgEdgeKind kind,
                                             const Cardinality& forward,
                                             const Cardinality& backward) {
  RelationshipId forward_id = relationships_.size();
  RelationshipId backward_id = forward_id + 1;
  relationships_.push_back(
      CsgRelationship{forward_id, from, to, kind, forward, backward_id});
  relationships_.push_back(
      CsgRelationship{backward_id, to, from, kind, backward, forward_id});
  adjacency_[from].push_back(forward_id);
  adjacency_[to].push_back(backward_id);
  return forward_id;
}

void CsgGraph::SetPrescribed(RelationshipId id,
                             const Cardinality& cardinality) {
  relationships_[id].prescribed = cardinality;
}

Result<NodeId> CsgGraph::FindTableNode(std::string_view relation) const {
  for (const CsgNode& node : nodes_) {
    if (node.kind == CsgNodeKind::kTable && node.relation == relation) {
      return node.id;
    }
  }
  return Status::NotFound("no table node for relation '" +
                          std::string(relation) + "'");
}

Result<NodeId> CsgGraph::FindAttributeNode(
    std::string_view relation, std::string_view attribute) const {
  for (const CsgNode& node : nodes_) {
    if (node.kind == CsgNodeKind::kAttribute && node.relation == relation &&
        node.attribute == attribute) {
      return node.id;
    }
  }
  return Status::NotFound("no attribute node for '" +
                          std::string(relation) + "." +
                          std::string(attribute) + "'");
}

std::string CsgGraph::DescribeRelationship(RelationshipId id) const {
  const CsgRelationship& rel = relationships_[id];
  std::ostringstream oss;
  oss << node(rel.from).QualifiedName()
      << (rel.kind == CsgEdgeKind::kEquality ? " ==> " : " -> ")
      << node(rel.to).QualifiedName() << " [" << rel.prescribed.ToString()
      << "]";
  return oss.str();
}

std::string CsgGraph::ToText() const {
  std::ostringstream oss;
  for (const CsgNode& node : nodes_) {
    oss << (node.kind == CsgNodeKind::kTable ? "[table] " : "(attr)  ")
        << node.QualifiedName();
    if (node.kind == CsgNodeKind::kAttribute) {
      oss << " : " << DataTypeToString(node.type);
    }
    oss << "\n";
    for (RelationshipId rel_id : adjacency_[node.id]) {
      oss << "    " << DescribeRelationship(rel_id) << "\n";
    }
  }
  return oss.str();
}

namespace {

using Code = CsgInstance::Code;

/// The degree interval of a degree vector; 0..0 when it is empty.
Cardinality DegreeRange(const std::vector<Code>& degrees) {
  if (degrees.empty()) return Cardinality::Exactly(0);
  auto [lo, hi] = std::minmax_element(degrees.begin(), degrees.end());
  return Cardinality::Between(*lo, *hi);
}

size_t CountOutside(const std::vector<Code>& degrees,
                    const Cardinality& prescribed) {
  size_t outside = 0;
  for (Code degree : degrees) {
    if (!prescribed.Contains(degree)) ++outside;
  }
  return outside;
}

/// Walks one path breadth-first from one start element at a time. Every
/// hop deduplicates its frontier with its own epoch-stamped visited
/// array, sized to the hop's end node once and reused by every walk: the
/// composition of relations relates an element to the *set* of
/// reachable end elements.
class PathWalker {
 public:
  PathWalker(const std::vector<const CsgInstance::Adjacency*>& hops,
             const std::vector<size_t>& hop_end_counts)
      : hops_(hops), visited_(hops.size()) {
    for (size_t h = 0; h < hops.size(); ++h) {
      visited_[h].assign(hop_end_counts[h], 0);
    }
  }

  /// The distinct end elements reachable from `start` (unordered); valid
  /// until the next call. At most 2^32 - 1 walks per walker.
  const std::vector<Code>& Walk(Code start) {
    ++epoch_;
    frontier_.assign(1, start);
    for (size_t h = 0; h < hops_.size() && !frontier_.empty(); ++h) {
      const CsgInstance::Adjacency& hop = *hops_[h];
      std::vector<uint32_t>& visited = visited_[h];
      next_.clear();
      for (Code element : frontier_) {
        for (Code i = hop.offsets[element]; i < hop.offsets[element + 1];
             ++i) {
          Code target = hop.targets[i];
          if (visited[target] == epoch_) continue;
          visited[target] = epoch_;
          next_.push_back(target);
        }
      }
      frontier_.swap(next_);
    }
    return frontier_;
  }

 private:
  std::vector<const CsgInstance::Adjacency*> hops_;
  std::vector<std::vector<uint32_t>> visited_;
  uint32_t epoch_ = 0;
  std::vector<Code> frontier_;
  std::vector<Code> next_;
};

}  // namespace

CsgInstance::CsgInstance(const CsgGraph& graph,
                         std::vector<NodeElements> nodes,
                         std::vector<Adjacency> links)
    : nodes_(std::move(nodes)), links_(std::move(links)) {
  nodes_.resize(graph.nodes().size());
  links_.resize(graph.relationships().size());
  for (const CsgRelationship& rel : graph.relationships()) {
    Adjacency& adjacency = links_[rel.id];
    if (adjacency.offsets.empty()) {
      adjacency.offsets.assign(nodes_[rel.from].count + size_t{1}, 0);
    }
    assert(adjacency.offsets.size() == nodes_[rel.from].count + size_t{1});
    assert(adjacency.offsets.back() == adjacency.targets.size());
  }
}

Value CsgInstance::ElementValue(NodeId node, Code element) const {
  const NodeElements& elements = nodes_[node];
  if (elements.column == nullptr) {
    return Value::Integer(static_cast<int64_t>(element));
  }
  return (*elements.column)[elements.first_rows[element]];
}

std::vector<Code> CsgInstance::OutDegrees(const CsgGraph& graph,
                                          RelationshipId rel) const {
  (void)graph;
  const std::vector<Code>& offsets = links_[rel].offsets;
  std::vector<Code> degrees(offsets.size() - 1);
  for (size_t e = 0; e < degrees.size(); ++e) {
    degrees[e] = offsets[e + 1] - offsets[e];
  }
  return degrees;
}

Cardinality CsgInstance::ActualCardinality(const CsgGraph& graph,
                                           RelationshipId rel) const {
  return DegreeRange(OutDegrees(graph, rel));
}

size_t CsgInstance::CountViolations(const CsgGraph& graph,
                                    RelationshipId rel,
                                    const Cardinality& prescribed) const {
  return CountOutside(OutDegrees(graph, rel), prescribed);
}

std::vector<Code> CsgInstance::PathOutDegrees(
    const CsgGraph& graph, const std::vector<RelationshipId>& path) const {
  if (path.empty()) return {};
  std::vector<const Adjacency*> hops;
  std::vector<size_t> hop_end_counts;
  for (RelationshipId rel : path) {
    hops.push_back(&links_[rel]);
    hop_end_counts.push_back(nodes_[graph.relationship(rel).to].count);
  }
  PathWalker walker(hops, hop_end_counts);
  NodeId start = graph.relationship(path.front()).from;
  std::vector<Code> degrees(nodes_[start].count);
  for (size_t e = 0; e < degrees.size(); ++e) {
    degrees[e] = static_cast<Code>(walker.Walk(static_cast<Code>(e)).size());
  }
  return degrees;
}

std::vector<Value> CsgInstance::ReachableViaPath(
    const CsgGraph& graph, const std::vector<RelationshipId>& path,
    Code start) const {
  if (path.empty()) return {Value::Integer(static_cast<int64_t>(start))};
  if (start >= nodes_[graph.relationship(path.front()).from].count) return {};
  // One walk: a visited array per hop would cost the size of every hop's
  // end node, so the frontier deduplicates by sorting instead.
  std::vector<Code> frontier = {start};
  std::vector<Code> next;
  for (RelationshipId rel : path) {
    const Adjacency& hop = links_[rel];
    next.clear();
    for (Code element : frontier) {
      next.insert(next.end(), hop.targets.begin() + hop.offsets[element],
                  hop.targets.begin() + hop.offsets[element + 1]);
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier.swap(next);
    if (frontier.empty()) break;
  }
  NodeId end = graph.relationship(path.back()).to;
  std::vector<Value> result;
  result.reserve(frontier.size());
  for (Code element : frontier) result.push_back(ElementValue(end, element));
  std::sort(result.begin(), result.end());
  return result;
}

Cardinality CsgInstance::ActualPathCardinality(
    const CsgGraph& graph, const std::vector<RelationshipId>& path) const {
  return DegreeRange(PathOutDegrees(graph, path));
}

CsgInstance::Defects CsgInstance::CountPathDefects(
    const CsgGraph& graph, const std::vector<RelationshipId>& path,
    const Cardinality& prescribed) const {
  static Counter& violations =
      MetricsRegistry::Global().GetCounter("csg.path.violations");
  Defects defects;
  for (Code degree : PathOutDegrees(graph, path)) {
    if (prescribed.Contains(degree)) continue;
    if (degree < prescribed.min()) {
      ++defects.too_few;
    } else {
      ++defects.too_many;
    }
  }
  violations.Increment(defects.too_few + defects.too_many);
  return defects;
}

size_t CsgInstance::CountPathViolations(
    const CsgGraph& graph, const std::vector<RelationshipId>& path,
    const Cardinality& prescribed) const {
  Defects defects = CountPathDefects(graph, path, prescribed);
  return defects.too_few + defects.too_many;
}

}  // namespace efes
