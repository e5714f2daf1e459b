// Package vexec is sqalpel's typed executor core: a batch-at-a-time
// vectorized executor in the VectorWise tradition, contrasting with the
// tuple-at-a-time interpreter (tuplestore) and the full-column materializing
// interpreter (columba) of internal/engine. It carries two of the four
// execution paradigms. By default (vektor) scans and filters are pulled
// batches with one vector pass per conjunct; with Options.Fused (fusil,
// the data-centric compiled paradigm) the segment between a table and the
// first pipeline breaker is one loop of compiled per-row closures
// (compile.go, fused.go) emitting the same batches. Everything above that
// segment — joins, aggregation, the epilogue, sub-queries — exists once.
//
// Its distinguishing mechanics:
//
//   - Typed, unboxed columnar vectors ([]int64, []float64, []string) with
//     separate null bitmaps instead of boxed []Value cells. Numeric vectors
//     may carry a per-row int/float duality mask so unboxed storage keeps the
//     per-row SQL value semantics (exact integer arithmetic, int-preserving
//     division). A row is boxed (Vector.At) into the one sqlsem.Value only
//     at block boundaries — sub-query sets, a caller reading the result —
//     and every scalar operation outside the typed fast paths is a kernel
//     of internal/sqlsem, the same one the interpreters call.
//   - Selection vectors: filters shrink an index list over a batch instead
//     of copying payload columns; one pass per conjunct, like a column store,
//     but over fixed-size batches.
//   - Late materialization (batch.go): scans carry only the columns the
//     statement references (plan.Select.Needed), and between a base table
//     and the breaker that reads it a column is a view — its source vector
//     plus the row-id vector of its join side. Filtered materialization,
//     joins and sub-query pair batches compose row ids, once per side; a
//     column is gathered once, from base storage, when an expression reads
//     it, and never when none does.
//   - A pull-based operator pipeline (scan -> filter -> hash join -> hash
//     aggregate -> order/limit -> project) processing fixed-size batches
//     (default 1024 rows) end to end, so intermediates stay cache resident.
//   - Allocation-free hashing: join, group-by and DISTINCT share one
//     open-addressing hash table (hashtable.go) with 64-bit hashes over the
//     unboxed payloads, typed fast paths for single-int and single-string
//     keys and a reusable []byte encoding for compound keys — group ids are
//     dense and in insertion order, which pins output order to the
//     interpreters'.
//   - Typed aggregation (aggregate.go): one aggTable of flat per-group
//     state columns — per aggregate only what its function reads, one
//     (group, value) set per DISTINCT aggregate, all grown amortised — and
//     one fold shared by the serial breaker, the morsel-parallel breaker
//     and the decorrelated sub-query, which differ only in where a batch's
//     group ids come from: ids into a reusable []int32, then per aggregate
//     one kernel chosen per batch from (function, vector kind) over the raw
//     payload slices. Every group's rows are folded in global row order, so
//     sums and extremes equal the interpreters' bit for bit.
//   - Morsel-driven intra-query parallelism (parallel.go, enabled by
//     Options.Parallelism): scan->filter morsels, thread-local group
//     tables and partitioned hash-join builds fan across a bounded worker
//     pool, with every merge walking morsel order (the aggregation fold
//     replays the morsels in order, one worker per aggregate) — results are
//     bit-identical at any worker count, float summation order included.
//
// The package depends on internal/sqlparser, the value layer of
// internal/sqlsem and the shared logical plan of internal/plan — never on
// internal/engine: ExecutePlan compiles its pipeline straight from a
// pre-built plan's classified conjuncts and join steps and indexes with
// its resolved output contract (star ordinals, output names, ORDER BY
// keys). It executes the dialect subset that
// vectorizes well (conjunctive filters, equi hash joins, hash aggregation,
// ordering, DISTINCT, LIMIT, derived tables, uncorrelated and
// decorrelatable sub-queries and the full scalar expression repertoire);
// other statements (set operations, correlated sub-queries without an
// equi-join correlation) carry a negative Vectorizable verdict on their
// plan and return ErrUnsupported, which internal/engine's Execute turns
// into interpreter execution of the same plan under the same budget
// (Options.Limits, resolved there once). The counters are plan.Stats, the
// set the interpreters fill too, and the result's vectors are handed to
// the caller as they are. The conversion from the boxed []Value storage of
// engine.Database into typed vectors (FromValues) happens once per table
// data version in internal/engine's import shim, not here.
package vexec
