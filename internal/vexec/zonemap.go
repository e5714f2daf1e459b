package vexec

import (
	"strings"

	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
)

// ZoneBlockRows is the zone-map block granularity. Both shipped batch sizes
// (1024 and 4096) are multiples of it, which is what lets the serial scan,
// the morsel-parallel scan and the fused scan make identical skip
// decisions: a block never straddles a batch or morsel boundary.
const ZoneBlockRows = 1024

// zoneClass says which payload domain a column's zone bounds live in. A
// column is zoneNone when its values cannot be bounded in a way that agrees
// with compareScalars for every literal: integers at or beyond 2^52 (where
// the float64 image of a comparison could disagree with the exact int64
// comparison the row path uses), float columns containing NaN, and string
// columns too wide to bound cheaply are all excluded rather than risk a
// skip decision the row-at-a-time semantics would contradict.
type zoneClass uint8

const (
	zoneNone  zoneClass = iota
	zoneInt             // Int/Bool/Date payloads, all |v| < 2^52
	zoneFloat           // Float payloads (including int/float duality), NaN-free
	zoneStr             // String payloads, raw or dictionary-coded
)

// zoneEntry is one column's statistics over one ZoneBlockRows-row block.
// The min/max fields of the column's class are set only when nonNull > 0.
type zoneEntry struct {
	nonNull    int
	minI, maxI int64
	minF, maxF float64
	minS, maxS string
}

// zoneMap holds per-block statistics for every supported column of a table,
// built once per table version alongside dictionary encoding.
type zoneMap struct {
	classes []zoneClass
	blocks  [][]zoneEntry // per column; nil when the class is zoneNone
}

// maxExactInt is the first magnitude at which float64 can no longer
// represent every integer; columns reaching it are left unzoned so the
// float-domain satisfiability test can never disagree with the exact
// integer comparison used row-at-a-time.
const maxExactInt = int64(1) << 52

func numBlocks(rows int) int {
	if rows <= 0 {
		return 0
	}
	return (rows + ZoneBlockRows - 1) / ZoneBlockRows
}

// buildZoneMap computes block statistics for every column that admits them.
func buildZoneMap(cols []TableColumn, rows int) *zoneMap {
	zm := &zoneMap{classes: make([]zoneClass, len(cols)), blocks: make([][]zoneEntry, len(cols))}
	nb := numBlocks(rows)
	for c, col := range cols {
		v := col.Vec
		if v == nil || v.Len() != rows || nb == 0 {
			continue
		}
		class, entries := buildColumnZones(v, nb)
		zm.classes[c] = class
		zm.blocks[c] = entries
	}
	return zm
}

func buildColumnZones(v *Vector, nb int) (zoneClass, []zoneEntry) {
	var class zoneClass
	switch v.Kind {
	case sqlsem.KindInt, sqlsem.KindBool, sqlsem.KindDate:
		class = zoneInt
	case sqlsem.KindFloat:
		class = zoneFloat
	case sqlsem.KindString:
		class = zoneStr
	default:
		return zoneNone, nil
	}
	entries := make([]zoneEntry, nb)
	for b := 0; b < nb; b++ {
		lo := b * ZoneBlockRows
		hi := lo + ZoneBlockRows
		if hi > v.Len() {
			hi = v.Len()
		}
		e := &entries[b]
		for i := lo; i < hi; i++ {
			if v.IsNull(i) {
				continue
			}
			switch class {
			case zoneInt:
				x := v.Ints[i]
				if x >= maxExactInt || x <= -maxExactInt {
					return zoneNone, nil
				}
				if e.nonNull == 0 || x < e.minI {
					e.minI = x
				}
				if e.nonNull == 0 || x > e.maxI {
					e.maxI = x
				}
			case zoneFloat:
				x := v.Floats[i]
				if x != x { // NaN defeats ordered bounds
					return zoneNone, nil
				}
				if e.nonNull == 0 || x < e.minF {
					e.minF = x
				}
				if e.nonNull == 0 || x > e.maxF {
					e.maxF = x
				}
			case zoneStr:
				s := v.StrAt(i)
				if e.nonNull == 0 || s < e.minS {
					e.minS = s
				}
				if e.nonNull == 0 || s > e.maxS {
					e.maxS = s
				}
			}
			e.nonNull++
		}
	}
	return class, entries
}

// boundScalars returns the block's min/max as scalars in the column's
// payload domain, matching what compareScalars would see row-at-a-time.
func (e *zoneEntry) boundScalars(class zoneClass, kind sqlsem.Kind) (lo, hi sqlsem.Value) {
	switch class {
	case zoneInt:
		return sqlsem.Value{Kind: kind, I: e.minI}, sqlsem.Value{Kind: kind, I: e.maxI}
	case zoneFloat:
		return sqlsem.NewFloat(e.minF), sqlsem.NewFloat(e.maxF)
	default:
		return sqlsem.NewString(e.minS), sqlsem.NewString(e.maxS)
	}
}

// ZonePred is a compiled block-satisfiability test for one pushed-down
// conjunct: test reports whether ANY row of the block could make the
// conjunct true. All compiled forms are null-rejecting (a NULL operand
// yields UNKNOWN, which a filter discards), so an all-NULL block is always
// skippable under any compiled predicate.
type ZonePred struct {
	col  int
	test func(e *zoneEntry, class zoneClass, kind sqlsem.Kind) bool
}

// ZonePreds compiles the pushed-down conjuncts of a scan over this table
// into block-satisfiability predicates. Conjuncts that do not have a
// supported shape (column-vs-literal comparison, BETWEEN, literal IN list,
// LIKE with a literal prefix) or that reference unzoned columns compile to
// nothing — the scan simply cannot skip on them. alias is the scan's
// binding name for unqualified/qualified column resolution.
func (t *Table) ZonePreds(alias string, conjuncts []sqlparser.Expr) []ZonePred {
	if t.zones == nil {
		return nil
	}
	var out []ZonePred
	for _, e := range conjuncts {
		if p, ok := t.zonePredFor(alias, e); ok {
			out = append(out, p)
		}
	}
	return out
}

// BlockMayMatch reports whether block b could contain a row satisfying all
// compiled predicates; a false return is a proof the block cannot, so the
// scan may skip it without changing results.
func (t *Table) BlockMayMatch(preds []ZonePred, b int) bool {
	for _, p := range preds {
		e := &t.zones.blocks[p.col][b]
		if !p.test(e, t.zones.classes[p.col], t.Cols[p.col].Vec.Kind) {
			return false
		}
	}
	return true
}

// zoneColumn resolves a conjunct-side expression to a zoned column index.
func (t *Table) zoneColumn(alias string, e sqlparser.Expr) (int, bool) {
	e = stripParens(e)
	cr, ok := e.(*sqlparser.ColumnRef)
	if !ok {
		return 0, false
	}
	if cr.Table != "" && !strings.EqualFold(cr.Table, alias) {
		return 0, false
	}
	for i, c := range t.Cols {
		if strings.EqualFold(c.Name, cr.Column) {
			if t.zones.classes[i] == zoneNone {
				return 0, false
			}
			return i, true
		}
	}
	return 0, false
}

func stripParens(e sqlparser.Expr) sqlparser.Expr {
	for {
		p, ok := e.(*sqlparser.ParenExpr)
		if !ok {
			return e
		}
		e = p.Expr
	}
}

// zoneLiteral evaluates a literal expression to a scalar, mirroring
// constVec's literal handling. ok is false for anything non-literal.
func zoneLiteral(e sqlparser.Expr) (sqlsem.Value, bool) {
	switch v := stripParens(e).(type) {
	case *sqlparser.NumberLit:
		s, err := sqlsem.ParseNumber(v.Value)
		return s, err == nil
	case *sqlparser.StringLit:
		return sqlsem.NewString(v.Value), true
	case *sqlparser.BoolLit:
		return sqlsem.NewBool(v.Value), true
	case *sqlparser.NullLit:
		return sqlsem.Null(), true
	case *sqlparser.DateLit:
		days, err := sqlsem.ParseDate(v.Value)
		return sqlsem.NewDate(days), err == nil
	case *sqlparser.UnaryExpr:
		if v.Op != "-" && v.Op != "+" {
			return sqlsem.Value{}, false
		}
		s, ok := zoneLiteral(v.Expr)
		if !ok || s.IsNull() || s.Kind == sqlsem.KindString {
			return sqlsem.Value{}, false
		}
		if v.Op == "-" {
			s.I, s.F = -s.I, -s.F
		}
		return s, true
	default:
		return sqlsem.Value{}, false
	}
}

// zoneComparable rejects literal/column pairings whose zone test could
// disagree with the row path: a numeric literal against a string column
// compares in the float domain row-at-a-time (ParseFloat-or-zero), and
// that mapping is not monotonic in string order, so string bounds prove
// nothing about it.
func zoneComparable(class zoneClass, lit sqlsem.Value) bool {
	if lit.IsNull() {
		return true // handled specially: conjunct is UNKNOWN everywhere
	}
	if class == zoneStr && lit.Kind != sqlsem.KindString {
		return false
	}
	return true
}

// zonePredFor compiles one conjunct; ok is false when the shape or the
// operand domains are unsupported.
func (t *Table) zonePredFor(alias string, e sqlparser.Expr) (ZonePred, bool) {
	switch v := stripParens(e).(type) {
	case *sqlparser.BinaryExpr:
		op := v.Op
		col, okc := t.zoneColumn(alias, v.Left)
		litExpr := v.Right
		if !okc {
			// mirrored form: literal OP column
			if op == "LIKE" || op == "NOT LIKE" {
				return ZonePred{}, false
			}
			col, okc = t.zoneColumn(alias, v.Right)
			litExpr = v.Left
			op = flipCmp(op)
		}
		if !okc {
			return ZonePred{}, false
		}
		if op == "LIKE" {
			return t.likePred(col, litExpr)
		}
		switch op {
		case "=", "<>", "<", "<=", ">", ">=":
		default:
			return ZonePred{}, false
		}
		lit, okl := zoneLiteral(litExpr)
		if !okl || !zoneComparable(t.zones.classes[col], lit) {
			return ZonePred{}, false
		}
		cmpOp := op
		return ZonePred{col: col, test: func(e *zoneEntry, class zoneClass, kind sqlsem.Kind) bool {
			if e.nonNull == 0 || lit.IsNull() {
				return false
			}
			lo, hi := e.boundScalars(class, kind)
			switch cmpOp {
			case "=":
				return lo.Compare(lit) <= 0 && hi.Compare(lit) >= 0
			case "<>":
				return !(lo.Compare(lit) == 0 && hi.Compare(lit) == 0)
			case "<":
				return lo.Compare(lit) < 0
			case "<=":
				return lo.Compare(lit) <= 0
			case ">":
				return hi.Compare(lit) > 0
			case ">=":
				return hi.Compare(lit) >= 0
			}
			return true
		}}, true
	case *sqlparser.BetweenExpr:
		if v.Not {
			return ZonePred{}, false
		}
		col, okc := t.zoneColumn(alias, v.Expr)
		if !okc {
			return ZonePred{}, false
		}
		blo, okl := zoneLiteral(v.Lo)
		bhi, okh := zoneLiteral(v.Hi)
		if !okl || !okh {
			return ZonePred{}, false
		}
		class := t.zones.classes[col]
		if !zoneComparable(class, blo) || !zoneComparable(class, bhi) {
			return ZonePred{}, false
		}
		return ZonePred{col: col, test: func(e *zoneEntry, class zoneClass, kind sqlsem.Kind) bool {
			if e.nonNull == 0 || blo.IsNull() || bhi.IsNull() {
				// a NULL bound makes BETWEEN at best UNKNOWN for every row
				return false
			}
			lo, hi := e.boundScalars(class, kind)
			return hi.Compare(blo) >= 0 && lo.Compare(bhi) <= 0
		}}, true
	case *sqlparser.InExpr:
		if v.Not || v.Subquery != nil {
			return ZonePred{}, false
		}
		col, okc := t.zoneColumn(alias, v.Expr)
		if !okc {
			return ZonePred{}, false
		}
		class := t.zones.classes[col]
		items := make([]sqlsem.Value, 0, len(v.List))
		for _, it := range v.List {
			lit, okl := zoneLiteral(it)
			if !okl || !zoneComparable(class, lit) {
				return ZonePred{}, false
			}
			if lit.IsNull() {
				continue // a NULL item can only ever contribute UNKNOWN
			}
			items = append(items, lit)
		}
		return ZonePred{col: col, test: func(e *zoneEntry, class zoneClass, kind sqlsem.Kind) bool {
			if e.nonNull == 0 {
				return false
			}
			lo, hi := e.boundScalars(class, kind)
			for _, lit := range items {
				if lo.Compare(lit) <= 0 && hi.Compare(lit) >= 0 {
					return true
				}
			}
			return false
		}}, true
	default:
		return ZonePred{}, false
	}
}

// likePred compiles `col LIKE 'prefix…'` into a string-range test over the
// literal prefix (the longest leading run with no wildcard). Every string
// matching the pattern starts with the prefix, so it lies in
// [prefix, nextPrefix(prefix)) under byte-wise ordering — the same ordering
// strings.Compare and the zone bounds use.
func (t *Table) likePred(col int, patExpr sqlparser.Expr) (ZonePred, bool) {
	if t.zones.classes[col] != zoneStr {
		return ZonePred{}, false
	}
	lit, ok := zoneLiteral(patExpr)
	if !ok || lit.Kind != sqlsem.KindString {
		return ZonePred{}, false
	}
	prefix := likePrefix(lit.S)
	if prefix == "" {
		return ZonePred{}, false
	}
	upper := nextPrefix(prefix)
	return ZonePred{col: col, test: func(e *zoneEntry, class zoneClass, kind sqlsem.Kind) bool {
		if e.nonNull == 0 {
			return false
		}
		if e.maxS < prefix {
			return false
		}
		if upper != "" && e.minS >= upper {
			return false
		}
		return true
	}}, true
}

// likePrefix returns the wildcard-free leading run of a LIKE pattern.
func likePrefix(pat string) string {
	for i := 0; i < len(pat); i++ {
		if pat[i] == '%' || pat[i] == '_' {
			return pat[:i]
		}
	}
	return pat
}

// nextPrefix is the smallest string strictly greater than every string with
// the given prefix, or "" when no such bound exists (all-0xff prefixes).
func nextPrefix(prefix string) string {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xff {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
}

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op // "=", "<>" are symmetric; others rejected upstream
	}
}
