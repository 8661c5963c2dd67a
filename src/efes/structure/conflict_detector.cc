#include "efes/structure/conflict_detector.h"

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <optional>
#include <sstream>

#include "efes/telemetry/trace.h"

namespace efes {

namespace {

/// Maps target nodes to source nodes via the correspondences. Table nodes
/// map through relation-level correspondences (falling back to the first
/// source relation contributing attributes); attribute nodes map through
/// attribute-level correspondences.
std::map<NodeId, NodeId> BuildNodeMapping(
    const CsgGraph& target_graph, const CsgGraph& source_graph,
    const CorrespondenceSet& correspondences) {
  std::map<NodeId, NodeId> mapping;
  for (const CsgNode& target_node : target_graph.nodes()) {
    if (target_node.kind == CsgNodeKind::kTable) {
      std::string source_relation;
      auto relation_corr =
          correspondences.RelationCorrespondenceFor(target_node.relation);
      if (relation_corr.ok()) {
        source_relation = relation_corr->source_relation;
      } else {
        // Fallback: anchor at the first source relation that feeds any
        // attribute of this target relation.
        std::vector<Correspondence> attrs =
            correspondences.AttributesInto(target_node.relation);
        if (!attrs.empty()) source_relation = attrs.front().source_relation;
      }
      if (source_relation.empty()) continue;
      auto source_node = source_graph.FindTableNode(source_relation);
      if (source_node.ok()) mapping[target_node.id] = *source_node;
    } else {
      std::vector<Correspondence> attrs = correspondences.AttributesInto(
          target_node.relation, target_node.attribute);
      if (attrs.empty()) continue;
      auto source_node = source_graph.FindAttributeNode(
          attrs.front().source_relation, attrs.front().source_attribute);
      if (source_node.ok()) mapping[target_node.id] = *source_node;
    }
  }
  return mapping;
}

std::string DescribeConstraint(const CsgGraph& graph,
                               const CsgRelationship& rel) {
  std::ostringstream oss;
  oss << "k(" << graph.node(rel.from).QualifiedName()
      << (rel.kind == CsgEdgeKind::kEquality ? " ==> " : " -> ")
      << graph.node(rel.to).QualifiedName() << ") = "
      << rel.prescribed.ToString();
  return oss.str();
}

/// The directed attribute->table relationship of (relation, attribute) in
/// `graph`, or nullopt.
std::optional<RelationshipId> FindAttributeToTable(
    const CsgGraph& graph, const std::string& relation,
    const std::string& attribute) {
  auto attr_node = graph.FindAttributeNode(relation, attribute);
  if (!attr_node.ok()) return std::nullopt;
  for (RelationshipId rel_id : graph.OutgoingOf(*attr_node)) {
    const CsgRelationship& rel = graph.relationship(rel_id);
    if (rel.kind == CsgEdgeKind::kAttribute &&
        graph.node(rel.to).kind == CsgNodeKind::kTable) {
      return rel_id;
    }
  }
  return std::nullopt;
}

/// Detects violations of composite (n-ary) unique constraints whose key
/// attributes are all fed from one source relation. The static inference
/// uses the inverse join cardinality (Lemma 3): the number of tuples a
/// combination of key values can appear in is bounded by the product of
/// the per-attribute bounds; the actual count projects the source
/// instance onto the corresponded columns.
void DetectCompositeKeyConflicts(const IntegrationScenario& scenario,
                                 const SourceBinding& source,
                                 const CsgGraph& target_graph,
                                 SourceStructureAssessment* assessment) {
  const Schema& target_schema = scenario.target.schema();
  const Schema& source_schema = source.database.schema();
  for (const Constraint& constraint : target_schema.constraints()) {
    if (constraint.kind != ConstraintKind::kPrimaryKey &&
        constraint.kind != ConstraintKind::kUnique) {
      continue;
    }
    if (constraint.attributes.size() < 2) continue;  // unary handled above

    // All key attributes must be fed from the same source relation.
    std::string source_relation;
    std::vector<std::string> source_attributes;
    bool complete = true;
    for (const std::string& attribute : constraint.attributes) {
      std::vector<Correspondence> corrs = source.correspondences
                                              .AttributesInto(
                                                  constraint.relation,
                                                  attribute);
      if (corrs.empty()) {
        complete = false;
        break;
      }
      if (source_relation.empty()) {
        source_relation = corrs.front().source_relation;
      } else if (source_relation != corrs.front().source_relation) {
        complete = false;
        break;
      }
      source_attributes.push_back(corrs.front().source_attribute);
    }
    if (!complete) continue;

    // Static short-circuit: if any contributing attribute is unique on
    // its own in the source, every combination is unique too.
    bool statically_unique = false;
    Cardinality inferred = Cardinality::Exactly(1);
    bool first = true;
    for (const std::string& attribute : source_attributes) {
      if (source_schema.IsUniqueAttribute(source_relation, attribute)) {
        statically_unique = true;
      }
      Cardinality backward =
          source_schema.IsUniqueAttribute(source_relation, attribute)
              ? Cardinality::Exactly(1)
              : Cardinality::AtLeast(1);
      inferred = first ? backward
                       : Cardinality::JoinInverse(inferred, backward);
      first = false;
    }
    if (statically_unique) continue;

    auto table_result = source.database.table(source_relation);
    if (!table_result.ok()) continue;
    const Table& table = **table_result;
    std::vector<size_t> columns;
    bool resolvable = true;
    for (const std::string& attribute : source_attributes) {
      auto index = table.def().AttributeIndex(attribute);
      if (!index.has_value()) {
        resolvable = false;
        break;
      }
      columns.push_back(*index);
    }
    if (!resolvable) continue;
    size_t duplicates = table.CountDuplicateProjections(columns);
    if (duplicates == 0) continue;

    std::optional<RelationshipId> anchor = FindAttributeToTable(
        target_graph, constraint.relation, constraint.attributes[0]);
    if (!anchor.has_value()) continue;

    StructureConflict conflict;
    conflict.source_database = source.database.name();
    conflict.target_relationship = *anchor;
    conflict.target_constraint = constraint.ToString();
    conflict.kind = StructuralConflictKind::kUniqueViolated;
    conflict.excess = true;
    conflict.prescribed = Cardinality::Exactly(1);
    conflict.inferred = inferred;
    std::ostringstream path;
    path << source_relation << "(";
    for (size_t i = 0; i < source_attributes.size(); ++i) {
      if (i > 0) path << ", ";
      path << source_attributes[i];
    }
    path << ") joined per Lemma 3";
    conflict.source_path = path.str();
    conflict.violation_count = duplicates;
    assessment->conflicts.push_back(std::move(conflict));
  }
}

/// Detects violations of target functional dependencies X -> Y whose
/// determinant and dependent attributes are all fed from one source
/// relation: a determinant group with several distinct dependent
/// projections cannot satisfy the FD after integration. Anchored at the
/// dependent attribute's table->attribute relationship and classified as
/// "multiple attribute values" (per determinant group, the dependent
/// effectively receives several values).
void DetectFunctionalDependencyConflicts(
    const IntegrationScenario& scenario, const SourceBinding& source,
    const CsgGraph& target_graph, SourceStructureAssessment* assessment) {
  const Schema& target_schema = scenario.target.schema();
  for (const Constraint& constraint : target_schema.constraints()) {
    if (constraint.kind != ConstraintKind::kFunctionalDependency) continue;

    // Resolve determinant + dependent attributes from one source relation.
    std::string source_relation;
    std::vector<std::string> lhs_attributes;
    std::vector<std::string> rhs_attributes;
    bool complete = true;
    auto resolve = [&](const std::vector<std::string>& target_attributes,
                       std::vector<std::string>* source_attributes) {
      for (const std::string& attribute : target_attributes) {
        std::vector<Correspondence> corrs =
            source.correspondences.AttributesInto(constraint.relation,
                                                  attribute);
        if (corrs.empty()) {
          complete = false;
          return;
        }
        if (source_relation.empty()) {
          source_relation = corrs.front().source_relation;
        } else if (source_relation != corrs.front().source_relation) {
          complete = false;
          return;
        }
        source_attributes->push_back(corrs.front().source_attribute);
      }
    };
    resolve(constraint.attributes, &lhs_attributes);
    if (complete) resolve(constraint.referenced_attributes, &rhs_attributes);
    if (!complete) continue;

    // Static short-circuit: the same FD declared on the source relation
    // guarantees the target FD.
    bool statically_safe = false;
    for (const Constraint& c : source.database.schema().constraints()) {
      if (c.kind == ConstraintKind::kFunctionalDependency &&
          c.relation == source_relation && c.attributes == lhs_attributes &&
          c.referenced_attributes == rhs_attributes) {
        statically_safe = true;
      }
      // A unique determinant also implies the FD.
      if ((c.kind == ConstraintKind::kUnique ||
           c.kind == ConstraintKind::kPrimaryKey) &&
          c.relation == source_relation && c.attributes == lhs_attributes) {
        statically_safe = true;
      }
    }
    if (statically_safe) continue;

    auto table_result = source.database.table(source_relation);
    if (!table_result.ok()) continue;
    const Table& table = **table_result;
    std::vector<size_t> lhs_columns;
    std::vector<size_t> rhs_columns;
    bool resolvable = true;
    for (const std::string& attribute : lhs_attributes) {
      auto index = table.def().AttributeIndex(attribute);
      if (!index.has_value()) { resolvable = false; break; }
      lhs_columns.push_back(*index);
    }
    for (const std::string& attribute : rhs_attributes) {
      auto index = table.def().AttributeIndex(attribute);
      if (!index.has_value()) { resolvable = false; break; }
      rhs_columns.push_back(*index);
    }
    if (!resolvable) continue;

    // Count determinant groups with more than one dependent projection.
    size_t violating =
        table.CountFunctionalDependencyViolations(lhs_columns, rhs_columns);
    if (violating == 0) continue;

    std::optional<RelationshipId> anchor = FindAttributeToTable(
        target_graph, constraint.relation,
        constraint.referenced_attributes[0]);
    if (!anchor.has_value()) continue;
    // The conflict is excess on the *inverse* (table -> dependent attr):
    // per determinant group, several dependent values.
    RelationshipId table_to_attr =
        target_graph.relationship(*anchor).inverse;

    StructureConflict conflict;
    conflict.source_database = source.database.name();
    conflict.target_relationship = table_to_attr;
    conflict.target_constraint = constraint.ToString();
    conflict.kind = StructuralConflictKind::kMultipleAttributeValues;
    conflict.excess = true;
    conflict.prescribed = Cardinality::Exactly(1);
    conflict.inferred = Cardinality::AtLeast(1);
    conflict.source_path =
        source_relation + " grouped by determinant (FD over complex "
        "relationship)";
    conflict.violation_count = violating;
    assessment->conflicts.push_back(std::move(conflict));
  }
}

/// Detects unique violations that only emerge when contributions are
/// combined: several sources feeding the same unique target attribute,
/// or a source feeding an attribute whose target table already holds
/// data. Inference: Lemma 2's overlapping union of the per-contribution
/// cardinalities; count: distinct values present in more than one
/// contribution.
void DetectCrossSourceConflicts(const IntegrationScenario& scenario,
                                const CsgGraph& target_graph,
                                SourceStructureAssessment* combined) {
  const Schema& target_schema = scenario.target.schema();
  for (const RelationDef& relation : target_schema.relations()) {
    for (const AttributeDef& attribute : relation.attributes()) {
      if (!target_schema.IsUniqueAttribute(relation.name(),
                                           attribute.name)) {
        continue;
      }
      // Gather the distinct-value set of each contribution.
      std::vector<std::unordered_set<Value, ValueHash>> contributions;
      for (const SourceBinding& source : scenario.sources) {
        std::vector<Correspondence> corrs =
            source.correspondences.AttributesInto(relation.name(),
                                                  attribute.name);
        for (const Correspondence& corr : corrs) {
          auto table = source.database.table(corr.source_relation);
          if (!table.ok()) continue;
          auto index = (*table)->def().AttributeIndex(corr.source_attribute);
          if (!index.has_value()) continue;
          std::vector<Value> distinct = (*table)->DistinctValues(*index);
          if (!distinct.empty()) {
            contributions.emplace_back(distinct.begin(), distinct.end());
          }
        }
      }
      if (contributions.empty()) continue;  // attribute receives no data
      auto target_table = scenario.target.table(relation.name());
      if (target_table.ok()) {
        auto index = (*target_table)->def().AttributeIndex(attribute.name);
        if (index.has_value()) {
          std::vector<Value> existing =
              (*target_table)->DistinctValues(*index);
          if (!existing.empty()) {
            contributions.emplace_back(existing.begin(), existing.end());
          }
        }
      }
      if (contributions.size() < 2) continue;

      // Count values occurring in two or more contributions.
      std::unordered_map<Value, size_t, ValueHash> occurrence;
      for (const auto& contribution : contributions) {
        for (const Value& value : contribution) ++occurrence[value];
      }
      size_t overlapping = 0;
      for (const auto& [value, count] : occurrence) {
        if (count > 1) ++overlapping;
      }
      if (overlapping == 0) continue;

      std::optional<RelationshipId> anchor = FindAttributeToTable(
          target_graph, relation.name(), attribute.name);
      if (!anchor.has_value()) continue;

      Cardinality inferred = Cardinality::Exactly(1);
      for (size_t i = 1; i < contributions.size(); ++i) {
        inferred = Cardinality::UnionOverlapping(inferred,
                                                 Cardinality::Exactly(1));
      }

      StructureConflict conflict;
      conflict.source_database = "(combined)";
      conflict.target_relationship = *anchor;
      conflict.target_constraint =
          "k(" + relation.name() + "." + attribute.name + " -> " +
          relation.name() + ") = 1 across " +
          std::to_string(contributions.size()) + " contributions";
      conflict.kind = StructuralConflictKind::kUniqueViolated;
      conflict.excess = true;
      conflict.prescribed = Cardinality::Exactly(1);
      conflict.inferred = inferred;
      conflict.source_path = "union of contributions per Lemma 2";
      conflict.violation_count = overlapping;
      combined->conflicts.push_back(std::move(conflict));
    }
  }
}

}  // namespace

std::string_view StructuralConflictKindToString(
    StructuralConflictKind kind) {
  switch (kind) {
    case StructuralConflictKind::kNotNullViolated:
      return "Not null violated";
    case StructuralConflictKind::kUniqueViolated:
      return "Unique violated";
    case StructuralConflictKind::kMultipleAttributeValues:
      return "Multiple attribute values";
    case StructuralConflictKind::kValueWithoutTuple:
      return "Value w/o enclosing tuple";
    case StructuralConflictKind::kForeignKeyViolated:
      return "FK violated";
  }
  return "unknown";
}

StructuralConflictKind ClassifyConflict(const CsgGraph& graph,
                                        const CsgRelationship& relationship,
                                        bool excess) {
  if (relationship.kind == CsgEdgeKind::kEquality) {
    return StructuralConflictKind::kForeignKeyViolated;
  }
  const CsgNode& origin = graph.node(relationship.from);
  if (origin.kind == CsgNodeKind::kTable) {
    // table -> attribute: too many values per tuple, or a missing
    // mandatory value.
    return excess ? StructuralConflictKind::kMultipleAttributeValues
                  : StructuralConflictKind::kNotNullViolated;
  }
  // attribute -> table: a value in several tuples (unique violated), or a
  // value without any enclosing tuple.
  return excess ? StructuralConflictKind::kUniqueViolated
                : StructuralConflictKind::kValueWithoutTuple;
}

Result<std::vector<SourceStructureAssessment>> DetectStructureConflicts(
    const IntegrationScenario& scenario, CsgGraph* target_graph_out,
    const ConflictDetectorOptions& options) {
  const PathSearchOptions& path_options = options.path_search;
  if (target_graph_out == nullptr) {
    return Status::InvalidArgument("target_graph_out must not be null");
  }
  *target_graph_out = BuildCsgGraph(scenario.target);
  const CsgGraph& target_graph = *target_graph_out;

  std::vector<SourceStructureAssessment> assessments;
  for (const SourceBinding& source : scenario.sources) {
    Csg source_csg = [&] {
      TraceSpan span("structure.csg_build");
      return BuildCsg(source.database);
    }();
    std::map<NodeId, NodeId> node_mapping = BuildNodeMapping(
        target_graph, source_csg.graph, source.correspondences);

    SourceStructureAssessment assessment;
    assessment.source_database = source.database.name();

    for (const CsgRelationship& rel : target_graph.relationships()) {
      // Unconstrained relationships cannot be violated.
      if (rel.prescribed == Cardinality::Any()) continue;

      auto from_it = node_mapping.find(rel.from);
      auto to_it = node_mapping.find(rel.to);
      if (from_it == node_mapping.end() || to_it == node_mapping.end()) {
        continue;  // no source information about this relationship
      }

      std::optional<PathMatch> best = FindBestPath(
          source_csg.graph, from_it->second, to_it->second, path_options);

      auto emit = [&](bool excess, const Cardinality& inferred,
                      const std::string& path_desc, size_t count) {
        if (count == 0) return;
        StructureConflict conflict;
        conflict.source_database = source.database.name();
        conflict.target_relationship = rel.id;
        conflict.target_constraint = DescribeConstraint(target_graph, rel);
        conflict.kind = ClassifyConflict(target_graph, rel, excess);
        conflict.excess = excess;
        conflict.prescribed = rel.prescribed;
        conflict.inferred = inferred;
        conflict.source_path = path_desc;
        conflict.violation_count = count;
        assessment.conflicts.push_back(std::move(conflict));
      };

      if (!best.has_value()) {
        // No source relationship realizes the target relationship: every
        // element ends up with zero links.
        if (!rel.prescribed.Contains(0)) {
          size_t affected =
              source_csg.instance.ElementCount(from_it->second);
          emit(/*excess=*/false, Cardinality::Exactly(0), "(no source path)",
               affected);
        }
        continue;
      }

      if (best->inferred.IsSubsetOf(rel.prescribed)) {
        continue;  // statically guaranteed to fit
      }

      // Count actually conflicting elements, split by defect side.
      CsgInstance::Defects defects;
      {
        TraceSpan span("structure.path_count");
        defects = source_csg.instance.CountPathDefects(
            source_csg.graph, best->path, rel.prescribed);
      }
      std::string path_desc = DescribePath(source_csg.graph, best->path);
      emit(/*excess=*/false, best->inferred, path_desc, defects.too_few);
      emit(/*excess=*/true, best->inferred, path_desc, defects.too_many);
    }

    if (options.detect_composite_keys) {
      DetectCompositeKeyConflicts(scenario, source, target_graph,
                                  &assessment);
    }
    if (options.detect_functional_dependencies) {
      DetectFunctionalDependencyConflicts(scenario, source, target_graph,
                                          &assessment);
    }
    assessments.push_back(std::move(assessment));
  }

  if (options.detect_cross_source_conflicts) {
    SourceStructureAssessment combined;
    combined.source_database = "(combined)";
    DetectCrossSourceConflicts(scenario, target_graph, &combined);
    if (!combined.conflicts.empty()) {
      assessments.push_back(std::move(combined));
    }
  }
  return assessments;
}

}  // namespace efes
