// Conversion of relational databases into CSGs (Section 4.1).
//
// "To convert a relational schema, for each of its relations, a
// corresponding table node is created [...] for each attribute, an
// attribute node is created and connected to its respective table node
// via a relationship. [...] any relational database can be turned into a
// CSG without loss of information."
//
// Prescribed cardinalities:
//   table -> attribute : 0..1, tightened to exactly 1 under NOT NULL
//                        (each tuple has at most one value per attribute);
//   attribute -> table : 1..*, tightened to exactly 1 under UNIQUE
//                        (each value must be contained in a tuple);
//   FK child attribute ==> parent attribute (equality relationship):
//                        exactly 1 forward (every child value must have
//                        an equal parent value), 0..1 backward.

#ifndef EFES_CSG_BUILDER_H_
#define EFES_CSG_BUILDER_H_

#include <memory>

#include "efes/csg/graph.h"
#include "efes/relational/database.h"

namespace efes {

/// A schema's CSG together with the instance of its data.
struct Csg {
  CsgGraph graph;
  CsgInstance instance;

  Csg(CsgGraph g, CsgInstance i)
      : graph(std::move(g)), instance(std::move(i)) {}
};

/// Builds the CSG of the database's schema only (no instance elements).
CsgGraph BuildCsgGraph(const Database& database);

/// Builds graph and instance. Table-node elements are the row indices;
/// attribute-node elements are the distinct non-null attribute values,
/// dictionary-encoded per column; links connect tuples with their values
/// and equal FK/parent values with each other. The instance refers to
/// the database's columns, so `database` must outlive the result. Emits
/// the `csg.build.*` metrics.
Csg BuildCsg(const Database& database);

}  // namespace efes

#endif  // EFES_CSG_BUILDER_H_
