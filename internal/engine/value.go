// Package engine implements the in-memory SQL execution substrate sqalpel
// runs experiments against. It provides a relational storage layer
// (Database/Table with column-major storage), a query executor covering the
// SQL dialect of internal/sqlparser (joins, sub-queries, grouping,
// aggregation, ordering), and six engines in four execution paradigms with
// genuinely different performance profiles — rows of one spec table
// (engine.go) run by one engine type, which hands back one columnar Result
// with one counter set (plan.Stats):
//
//   - RowEngine: a tuple-at-a-time interpreter that carries full rows,
//     evaluates predicates with short-circuiting and avoids intermediate
//     materialisation — the classic row store profile.
//   - ColEngine: a column-at-a-time engine that prunes unused columns,
//     filters with one pass per conjunct, and materialises every arithmetic
//     intermediate as a full vector with an overflow-guarding widening pass —
//     the profile of MonetDB-style systems the paper reports on.
//   - VektorEngine: a batch-vectorized engine (see internal/vexec) working
//     on typed unboxed vectors with selection vectors and fixed-size batch
//     pipelines — the VectorWise-style profile; statements outside its
//     subset fall back to the column interpreter.
//   - FusilEngine: a data-centric compiled engine (internal/vexec with
//     Options.Fused) that compiles each scan→filter segment into one loop
//     of Go closures over the typed columns — the HyPer-style profile; above
//     that segment it runs the vectorized engine's operators, and it covers
//     the same subset with the same fallback.
//
// The engines stand in for the external DBMSs the paper drives over JDBC:
// discriminative benchmarking needs systems that accept the same dialect
// but disagree on performance, which is exactly what they provide.
package engine

import "sqalpel/internal/sqlsem"

// Value and Kind are the one SQL scalar of internal/sqlsem — representation,
// comparison, hash keys, arithmetic and the scalar kernels all live there,
// shared with internal/vexec. The aliases keep Result.Rows() and table
// storage spelled in this package's terms.
type (
	Value = sqlsem.Value
	Kind  = sqlsem.Kind
)
