// Package plan is the shared logical-plan layer of the execution substrate:
// the paradigm-neutral front end that both executor families (the
// tuple-at-a-time and column-at-a-time interpreters in internal/engine and
// the typed executor of internal/vexec, vectorized or fused) consume instead
// of re-walking the raw AST on every execution.
//
// A Plan is built once per (schema, SQL text) and captures everything
// the engines previously re-derived on each Execute call:
//
//   - name resolution of every FROM item against the catalog, including the
//     output schemas of derived tables and set-operation branches,
//   - WHERE conjunct splitting with the common-OR lift (the TPC-H Q19
//     pattern), classified into hash-join edges, single-input pushdowns and
//     residual filters, plus the greedy join order as explicit JoinSteps,
//   - column pruning (the per-alias needed-column sets of the column
//     engine),
//   - constant folding of integer literal arithmetic in filter predicates,
//     and the one check of every numeric literal (sqlsem.ParseNumber), so a
//     malformed literal is the same build error on every engine,
//   - the SELECT output contract: star expansion to input ordinals, output
//     names, and ORDER BY keys resolved to an output ordinal (alias or
//     ordinal) or an expression,
//   - the interpreters' column slots: both relation layouts of every SELECT
//     core (Layout) and, per layout, the scope depth and column ordinal of
//     every column reference an interpreter evaluates (Slot, Plan.Slots), so
//     execution reads a column with a slice index instead of a name search,
//   - the statement's one validity check: an unknown table, an unknown or
//     ambiguous column, a misplaced or malformed aggregate call, a scalar
//     function's name or arity, a template parameter, a star beside
//     grouping, an empty projection and set-operation branches of unequal
//     width are Build errors whether or not a row would reach them, so every
//     engine refuses the same statements with the same text (type errors
//     that depend on the data stay the executors'),
//   - sub-query classification (correlated or cacheable) for every nested
//     SELECT reachable from the statement,
//   - a precomputed Vectorizable verdict with the reason a statement is
//     outside the vectorized subset, replacing the probe-and-fallback the
//     vektor adapter used to pay at runtime.
//
// Plans are immutable after Build and safe for concurrent use; the Cache in
// this package shares them between repetitions, engines and scheduler
// workers, keyed by the SQL text as written (Key) and invalidated by the
// catalog's schema/data version.
package plan

import (
	"sqalpel/internal/sqlparser"
)

// Catalog supplies the schema information name resolution runs against. The
// engine's Database implements it; a table it does not know is a build error.
type Catalog interface {
	// TableColumns returns the column names of a base table in declaration
	// order, or false when the table does not exist.
	TableColumns(name string) ([]string, bool)
}

// ColumnMeta names one column of a resolved schema: the table alias it
// belongs to (empty for computed columns) and the column name, both lower
// case — the same naming metadata the executors' intermediate relations and
// batches carry.
type ColumnMeta struct {
	Table string
	Name  string
}

// Layout names one of the two column layouts an interpreter relation can
// have. A layout is a pure function of the plan: a base table contributes
// its columns in declaration order under its alias, a derived table its
// OutSchema under the alias, a join its left columns then its right ones, a
// SELECT core From[0] then each JoinStep's right input.
type Layout int

// The interpreter layouts.
const (
	// LayoutRow is the tuple-at-a-time interpreter's: every column of every
	// input (Schema).
	LayoutRow Layout = iota
	// LayoutColumn is the column-at-a-time interpreter's: base tables keep
	// only the columns Select.Needed lists for their alias.
	LayoutColumn
)

// Slot is one column reference resolved for one layout with the executors'
// name rule (innermost scope first, an unqualified name matching two aliases
// is ambiguous): hop Depth scopes outwards from the scope evaluating the
// reference and read column Col of that scope's relation. A reference that
// is unknown or ambiguous is Build's error, so every slot of a plan resolves;
// a negative Depth marks a reference the interpreters never evaluate (an
// equi-join key, read through KeyCols). Eight bytes: a cached plan keeps two
// slots per reference.
type Slot struct {
	Depth, Col int32
}

// KeyCols are the ordinals of a join's n equi-key pairs in the relations of
// its two sides, for both layouts, in one slice: layout l has its left
// side's at [2ln, 2ln+n) and its right side's behind them.
type KeyCols []int32

// Sides returns the left and the right side's key ordinals in the layout.
func (k KeyCols) Sides(l Layout) (left, right []int32) {
	n, at := len(k)/4, int(l)*len(k)/2
	return k[at : at+n], k[at+n : at+2*n]
}

// Class is the role a WHERE conjunct plays in the plan.
type Class int

// Conjunct classes.
const (
	// ClassResidual conjuncts are evaluated after the joins.
	ClassResidual Class = iota
	// ClassJoin conjuncts are equi-join edges consumed by a JoinStep.
	ClassJoin
	// ClassPushdown conjuncts resolve entirely within one FROM input (or
	// reference no columns at all) and may be evaluated below the joins;
	// the interpreters still treat them as residual filters, the vectorized
	// executor pushes them into the input pipeline.
	ClassPushdown
)

// Conjunct is one WHERE conjunct after splitting and the common-OR lift.
type Conjunct struct {
	Expr sqlparser.Expr
	// Class is the conjunct's role.
	Class Class
	// Input is the FROM-input index a ClassPushdown conjunct belongs to.
	Input int
}

// JoinStep is one step of the greedy join order stitching the FROM inputs
// together: join the accumulated left side with input Right, either through
// the extracted equi-join keys or as a cross product when no edge connects
// the remaining inputs.
type JoinStep struct {
	// Right indexes Select.From.
	Right int
	// Cross marks a cartesian product (no equi-join edge was found).
	Cross bool
	// LeftKeys/RightKeys are the join key expressions, resolved on the
	// accumulated left side and on the right input respectively.
	LeftKeys  []sqlparser.Expr
	RightKeys []sqlparser.Expr
	// KeyCols are the keys' ordinals in the accumulated left relation and in
	// the right input's.
	KeyCols KeyCols
}

// Input is one resolved FROM item: a base table, a derived table or an
// explicit join tree.
type Input struct {
	// Table and Alias name a base table input (Alias defaults to Table).
	Table string
	Alias string
	// Derived is the sub-plan of a derived table (Alias renames its output
	// when non-empty).
	Derived *Select
	// Join is the root of an explicit JOIN tree.
	Join *Join
	// Schema is the input's resolved output schema.
	Schema []ColumnMeta
	// Pruned is the input's LayoutColumn (Schema is its LayoutRow); for a
	// base table that lost columns PrunedCols are the table ordinals of the
	// kept ones, nil when all are kept.
	Pruned     []ColumnMeta
	PrunedCols []int32
}

// Layout returns the input's columns as an interpreter relation of the
// layout carries them.
func (in *Input) Layout(l Layout) []ColumnMeta {
	if l == LayoutColumn {
		return in.Pruned
	}
	return in.Schema
}

// Join is one node of an explicit JOIN tree with its ON condition already
// classified. RIGHT joins are normalized at build time: the sides are
// swapped and the kind becomes "LEFT", mirroring the interpreter.
type Join struct {
	// Kind is "CROSS", "INNER" or "LEFT".
	Kind string
	// Left and Right are the join operands.
	Left  *Input
	Right *Input
	// LeftKeys/RightKeys are the equi-join key pairs extracted from ON.
	LeftKeys  []sqlparser.Expr
	RightKeys []sqlparser.Expr
	// KeyCols are the keys' ordinals in the left and the right operand's
	// relation.
	KeyCols KeyCols
	// Residual are the non-equi ON conjuncts applied after the hash join.
	Residual []sqlparser.Expr
	// AllConds are all ON conjuncts; INNER joins without equi keys evaluate
	// them over the cross product (the nested-loop path), and LEFT joins
	// without keys match on them per row pair.
	AllConds []sqlparser.Expr
	// Schema is the join's output schema (left columns then right columns).
	Schema []ColumnMeta
}

// Select is the logical plan of one SELECT core (one link of a set-operation
// chain).
type Select struct {
	// Stmt is the parsed statement this plan was built from; the executors
	// still read the grouping, HAVING, DISTINCT and limit clauses from it.
	Stmt *sqlparser.SelectStatement
	// From are the resolved FROM items.
	From []*Input
	// Conjuncts are the WHERE conjuncts after splitting, the common-OR lift
	// and constant folding, in canonical order, each classified.
	Conjuncts []Conjunct
	// JoinSteps is the greedy join order over From.
	JoinSteps []JoinStep
	// Residual are the non-join conjuncts in the interpreters' evaluation
	// order: original order with sub-query-bearing predicates moved last.
	Residual []sqlparser.Expr
	// VexecPushdown are the conjuncts the vectorized executor evaluates
	// below the joins, per FROM input.
	VexecPushdown [][]sqlparser.Expr
	// VexecResidual are the conjuncts the vectorized executor evaluates
	// after the joins (non-join, non-pushdown).
	VexecResidual []sqlparser.Expr
	// Grouped reports whether the query groups or aggregates.
	Grouped bool
	// EarlyLimit is LIMIT+OFFSET when a plain scan may stop early (no
	// grouping, DISTINCT or ORDER BY); zero otherwise. Only the row engine
	// exploits it.
	EarlyLimit int
	// Needed are the per-alias column sets referenced anywhere in the
	// statement: what the column interpreter and the typed scans prune to.
	Needed map[string]map[string]bool
	// Schema is the joined FROM schema in join order: the columns of the
	// relation the core's filters, grouping and projection read, in
	// LayoutRow. Pruned is its LayoutColumn; the inputs' Pruned are windows
	// of it.
	Schema []ColumnMeta
	Pruned []ColumnMeta
	// OutSchema is the statement's output schema: the star block first (its
	// columns keep their table tag), then one column per computed item with
	// an empty table tag, named by its alias, its column or its lower-cased
	// SQL text.
	OutSchema []ColumnMeta
	// StarCols are the Schema ordinals the projection's star items expand
	// to: output column i < len(StarCols) is input column StarCols[i].
	StarCols []int
	// Items are the computed (non-star) projection expressions in projection
	// order; Items[k] is output column len(StarCols)+k. Fewer items than
	// Stmt.Projection entries means the projection has a star.
	Items []sqlparser.Expr
	// OrderBy are the resolved ORDER BY keys.
	OrderBy []OrderKey
	// Aggs are the distinct aggregate calls of a grouped core's projection,
	// HAVING and evaluated ORDER BY keys in first-occurrence order; AggOf maps
	// every occurrence to its entry. Carried are the distinct column
	// references of the same clauses outside aggregate arguments — a group
	// answers them with its first row's value — and CarriedOf maps every
	// such reference to its entry. Build refuses a malformed call (sum(*), a
	// missing argument) and an aggregate anywhere else, so these are all of
	// the core's aggregates and each has one argument or is count(*).
	Aggs      []Agg
	AggOf     map[*sqlparser.FuncCall]int
	Carried   []*sqlparser.ColumnRef
	CarriedOf map[*sqlparser.ColumnRef]int
	// SetNext chains the plan of the next set-operation branch; the
	// operator is Stmt.SetOp.
	SetNext *Select
}

// Agg is one distinct aggregate call of a grouped SELECT core: the first
// occurrence of its canonical SQL text (Call.Star and Call.Distinct are
// part of it).
type Agg struct {
	Call *sqlparser.FuncCall
	// Func is the lower-cased function name: count, sum, avg, min or max.
	Func string
}

// OrderKey is one resolved ORDER BY key. A bare reference naming a computed
// item's output name, or an integer literal within 1..len(OutSchema), sorts
// by that output column; any other expression is evaluated in the
// projection's row or group context.
type OrderKey struct {
	// Col is the output ordinal to sort by, or -1 when Expr is evaluated.
	Col int
	// Expr is the key expression; nil when Col >= 0.
	Expr sqlparser.Expr
	Desc bool
}

// ApplyShape classifies how a decorrelated sub-query's per-group result is
// consumed at its use site.
type ApplyShape int

// Apply shapes.
const (
	// ApplyExists answers EXISTS/NOT EXISTS: any matching inner row decides.
	ApplyExists ApplyShape = iota
	// ApplyIn answers IN/NOT IN: three-valued membership among the matching
	// inner rows' projected values.
	ApplyIn
	// ApplyFirst answers a scalar sub-query without aggregation: the first
	// matching inner row's projected value, NULL when none matches.
	ApplyFirst
	// ApplyAgg answers a scalar aggregated sub-query: the aggregates folded
	// over the matching inner rows, with the empty-group value (count 0,
	// NULL sums) when none matches.
	ApplyAgg
)

// Apply is the decorrelation recipe of one correlated sub-query: the
// plan-level proof that its correlation predicates form an equi-join between
// the enclosing query (outer side) and the sub-query's own FROM pipeline
// (inner side). Executors that do not want to re-run the sub-query per outer
// row build the inner side once per execution, hash it by InnerKeys, and
// probe it with OuterKeys — turning the correlated sub-query into a join.
type Apply struct {
	// Shape is the use-site classification.
	Shape ApplyShape
	// OuterKeys/InnerKeys are the equi-correlation key pairs: OuterKeys
	// resolve in the enclosing query's joined FROM schema, InnerKeys in the
	// sub-query's own.
	OuterKeys []sqlparser.Expr
	InnerKeys []sqlparser.Expr
	// InnerResidual are the sub-query WHERE conjuncts that resolve entirely
	// within the sub-query's own FROM schema; they filter the inner side
	// before it is hashed (they replace the sub-plan's VexecResidual, whose
	// correlation conjuncts the probe has consumed).
	InnerResidual []sqlparser.Expr
	// PairConjuncts are the remaining conjuncts referencing the outer scope
	// in non-equi form (TPC-H Q21's l2.l_suppkey <> l1.l_suppkey); they are
	// evaluated per candidate (outer, inner) row pair after the key probe.
	PairConjuncts []sqlparser.Expr
}

// Plan is the shared logical plan of one query text against one catalog.
type Plan struct {
	// Root is the top-level SELECT plan.
	Root *Select
	// Vectorizable reports whether the statement is inside the vectorized
	// subset; when false, NotVectorizableReason says why and the vektor
	// adapter routes straight to the interpreter without probing.
	Vectorizable          bool
	NotVectorizableReason string

	// subs maps every nested SELECT reachable through expressions
	// (scalar/IN/EXISTS sub-queries) to what the plan knows of it; nil when
	// the statement has none.
	subs map[*sqlparser.SelectStatement]subquery
	// slots holds, per Layout, the slot of every column reference of the
	// statement, indexed by sqlparser.ColumnRef.Ord.
	slots [2][]Slot
}

// Slots returns the layout's slot table, indexed by ColumnRef.Ord. Every
// reference an interpreter evaluates through its evaluator has its slot here:
// WHERE residuals, ON conditions, GROUP BY, HAVING, projection items and
// evaluated ORDER BY keys, at any sub-query depth. Equi-join keys are read
// on their own side of the join and are resolved in KeyCols instead — the
// common-OR lift can make one reference both a key and part of a residual.
// The table is shared by every execution of the plan: read only.
func (p *Plan) Slots(l Layout) []Slot { return p.slots[l] }

// subquery is one nested SELECT of the statement: its plan, its correlation
// verdict and, when it is correlated and decorrelatable, the recipe.
type subquery struct {
	plan       *Select
	correlated bool
	apply      *Apply
}

// Sub returns the plan of a nested SELECT reached through an expression, or
// nil when the statement is not part of this plan.
func (p *Plan) Sub(stmt *sqlparser.SelectStatement) *Select { return p.subs[stmt].plan }

// Correlated reports whether the nested SELECT references columns it cannot
// resolve from its own FROM clauses; uncorrelated sub-queries are executed
// once and cached by the executors.
func (p *Plan) Correlated(stmt *sqlparser.SelectStatement) bool { return p.subs[stmt].correlated }

// Apply returns the decorrelation recipe of a correlated sub-query, or nil
// when the sub-query is uncorrelated or not decorrelatable (in which case
// the plan's Vectorizable verdict is false with the reason).
func (p *Plan) Apply(stmt *sqlparser.SelectStatement) *Apply { return p.subs[stmt].apply }
