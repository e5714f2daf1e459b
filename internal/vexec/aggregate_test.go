package vexec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
)

// --- the oracle ----------------------------------------------------------------
//
// aggAcc is the boxed, row-at-a-time fold the typed aggTable replaced: every
// row is boxed into a sqlsem.Value and every accumulator maintains count,
// both sums and both extremes whatever the function. It mirrors the
// interpreter's fold and is kept here, verbatim, as the reference the
// kernels are held to bit for bit.

type aggAcc struct {
	count       int64
	sumI        int64
	sumF        float64
	sumIsInt    bool
	minV        sqlsem.Value
	maxV        sqlsem.Value
	distinct    *hashTable
	distinctBuf []byte
}

func (a *aggAcc) fold(val sqlsem.Value, distinct bool) {
	if val.IsNull() {
		return
	}
	if distinct {
		a.distinctBuf = val.AppendKey(a.distinctBuf[:0])
		if _, isNew := a.distinct.getOrInsertBytes(a.distinctBuf); !isNew {
			return
		}
	}
	a.count++
	if val.Kind == sqlsem.KindInt {
		a.sumI += val.I
	} else {
		a.sumIsInt = false
	}
	a.sumF += val.Float()
	if a.minV.Kind == sqlsem.KindNull || val.Compare(a.minV) < 0 {
		a.minV = val
	}
	if a.maxV.Kind == sqlsem.KindNull || val.Compare(a.maxV) > 0 {
		a.maxV = val
	}
}

func (a *aggAcc) finalize(name string, star bool, groupRows int64) (sqlsem.Value, error) {
	switch name {
	case "count":
		if star {
			return sqlsem.NewInt(groupRows), nil
		}
		return sqlsem.NewInt(a.count), nil
	case "sum":
		if a.count == 0 {
			return sqlsem.Null(), nil
		}
		if a.sumIsInt {
			return sqlsem.NewInt(a.sumI), nil
		}
		return sqlsem.NewFloat(a.sumF), nil
	case "avg":
		if a.count == 0 {
			return sqlsem.Null(), nil
		}
		return sqlsem.NewFloat(a.sumF / float64(a.count)), nil
	case "min":
		if a.count == 0 {
			return sqlsem.Null(), nil
		}
		return a.minV, nil
	case "max":
		if a.count == 0 {
			return sqlsem.Null(), nil
		}
		return a.maxV, nil
	default:
		return sqlsem.Value{}, fmt.Errorf("unknown aggregate %q", name)
	}
}

// aggState is the oracle's running state of one group.
type aggState struct {
	rows   int64
	accs   []aggAcc
	firsts []sqlsem.Value
}

func newAggState(sp *plan.Select) *aggState {
	st := &aggState{accs: make([]aggAcc, len(sp.Aggs)), firsts: make([]sqlsem.Value, len(sp.Carried))}
	for i := range st.accs {
		st.accs[i].sumIsInt = true
		if sp.Aggs[i].Call.Distinct {
			st.accs[i].distinct = newByteKeyTable(8)
		}
	}
	return st
}

// aggBatch is one batch as the aggregation table sees it.
type aggBatch struct {
	gids       []int32
	args, refs []*Vector
}

// oracleAggregate folds the batches row by row through the boxed
// accumulators and builds the result columns through the boxed builder.
func oracleAggregate(sp *plan.Select, batches []aggBatch, minGroups int) (aggs, refs []*Vector, err error) {
	var order []*aggState
	for _, b := range batches {
		for j, g := range b.gids {
			if g < 0 {
				continue
			}
			if int(g) == len(order) {
				st := newAggState(sp)
				for ri, rv := range b.refs {
					st.firsts[ri] = rv.At(j)
				}
				order = append(order, st)
			}
			st := order[g]
			st.rows++
			for ai, a := range sp.Aggs {
				if !a.Call.Star {
					st.accs[ai].fold(b.args[ai].At(j), a.Call.Distinct)
				}
			}
		}
	}
	for len(order) < minGroups {
		order = append(order, newAggState(sp))
	}
	for ai, a := range sp.Aggs {
		bld := newBuilder(len(order))
		for _, st := range order {
			val, err := st.accs[ai].finalize(a.Func, a.Call.Star, st.rows)
			if err != nil {
				return nil, nil, err
			}
			bld.append(val)
		}
		vec, err := bld.finalize()
		if err != nil {
			return nil, nil, err
		}
		aggs = append(aggs, vec)
	}
	for ri := range sp.Carried {
		bld := newBuilder(len(order))
		for _, st := range order {
			bld.append(st.firsts[ri])
		}
		vec, err := bld.finalize()
		if err != nil {
			return nil, nil, err
		}
		refs = append(refs, vec)
	}
	return aggs, refs, nil
}

// --- random vectors --------------------------------------------------------------

// vecShape names one physical form an argument vector can take.
type vecShape int

const (
	shapeInt vecShape = iota
	shapeFloat
	shapeDual
	shapeDate
	shapeBool
	shapeStr
	shapeDictA
	shapeDictB
	shapeNullKind
)

var (
	testDictA = &Dictionary{Vals: []string{"", "0.5", "12", "apple", "b", "pear"}}
	testDictB = &Dictionary{Vals: []string{"12", "b", "zebra"}}
)

// randomVector draws n rows of the given shape from small domains (so
// DISTINCT, ties and the 1 = 1.0 key normalization all occur) salted with
// integers beyond 2^53 (which tie in the float domain min/max order by), NaN
// and infinities. nullEvery 0 means no NULLs, 1 all NULL, k every k-th row.
func randomVector(rng *rand.Rand, shape vecShape, n, nullEvery int) *Vector {
	ints := []int64{-3, -1, 0, 1, 2, 2, 7, 1 << 53, 1<<53 + 1, 1<<53 + 2, math.MaxInt64 - 1}
	floats := []float64{-2.5, -1, 0, 0.25, 1, 2, 2.5, 7, 1e300, math.Inf(1), math.NaN()}
	raw := []string{"", "0.5", "12", "apple", "b", "pear", "zebra", "1e3"}
	var v *Vector
	switch shape {
	case shapeNullKind:
		return NewNullVector(n)
	case shapeInt, shapeDate, shapeBool:
		kind := map[vecShape]sqlsem.Kind{shapeInt: sqlsem.KindInt, shapeDate: sqlsem.KindDate, shapeBool: sqlsem.KindBool}[shape]
		v = NewVector(kind, n)
		for i := range v.Ints {
			if v.Ints[i] = ints[rng.Intn(len(ints))]; shape == shapeBool {
				v.Ints[i] &= 1
			}
		}
	case shapeFloat, shapeDual:
		v = NewVector(sqlsem.KindFloat, n)
		if shape == shapeDual {
			v.Ints, v.IsInt = make([]int64, n), make([]bool, n)
		}
		for i := range v.Floats {
			if shape == shapeDual && rng.Intn(2) == 0 {
				v.Ints[i], v.IsInt[i] = ints[rng.Intn(len(ints))], true
				v.Floats[i] = float64(v.Ints[i])
			} else {
				v.Floats[i] = floats[rng.Intn(len(floats))]
			}
		}
	case shapeStr:
		v = NewVector(sqlsem.KindString, n)
		for i := range v.Strs {
			v.Strs[i] = raw[rng.Intn(len(raw))]
		}
	case shapeDictA, shapeDictB:
		d := testDictA
		if shape == shapeDictB {
			d = testDictB
		}
		v = &Vector{Kind: sqlsem.KindString, Dict: d, Codes: make([]uint32, n), n: n}
		for i := range v.Codes {
			v.Codes[i] = uint32(rng.Intn(d.Len()))
		}
	}
	for i := 0; nullEvery > 0 && i < n; i++ {
		if nullEvery == 1 || rng.Intn(nullEvery) == 0 {
			v.SetNull(i)
		}
	}
	return v
}

// randomGids draws dense first-seen group ids over groups groups (0: every
// row is outside any group), the first id continuing at next; one row in
// nine belongs to no group, like a NULL correlation key.
func randomGids(rng *rand.Rand, n, groups int, next *int) []int32 {
	gids := make([]int32, n)
	for j := range gids {
		switch {
		case groups == 0 || rng.Intn(9) == 0:
			gids[j] = -1
		case *next == 0 || (*next < groups && rng.Intn(3) == 0):
			gids[j] = int32(*next)
			*next++
		default:
			gids[j] = int32(rng.Intn(*next))
		}
	}
	return gids
}

const oracleSQL = "SELECT k, r, count(*), count(a), count(DISTINCT a), sum(a), sum(DISTINCT a), avg(a), avg(DISTINCT a), " +
	"min(a), max(a), min(DISTINCT a), max(DISTINCT a) FROM t GROUP BY k"

// oraclePlan plans oracleSQL: every function, plain and DISTINCT, over the
// one argument a, plus the carried references k and r.
func oraclePlan(t *testing.T) *plan.Select {
	t.Helper()
	cat := mapCatalog{"t": NewTable("t",
		TableColumn{Name: "k", Vec: intVec()}, TableColumn{Name: "a", Vec: intVec()}, TableColumn{Name: "r", Vec: intVec()})}
	p, err := plan.Build(cat, oracleSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Root.Aggs) != 11 || len(p.Root.Carried) != 2 {
		t.Fatalf("aggregation contract: %d aggregates, %d carried references", len(p.Root.Aggs), len(p.Root.Carried))
	}
	return p.Root
}

// vectorsIdentical holds got to want value for value, bit for bit; strict
// additionally requires the same vector kind and int/float duality.
func vectorsIdentical(t *testing.T, label string, got, want *Vector, strict bool) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	if strict && (got.Kind != want.Kind || (got.IsInt != nil) != (want.IsInt != nil)) {
		t.Fatalf("%s: kind %v dual %v, want %v dual %v", label, got.Kind, got.IsInt != nil, want.Kind, want.IsInt != nil)
	}
	for i := 0; i < want.Len(); i++ {
		if !scalarEqual(got.At(i), want.At(i)) {
			t.Fatalf("%s: group %d = %#v, want %#v", label, i, got.At(i), want.At(i))
		}
	}
}

// TestAggTableMatchesBoxedFold holds the typed aggregation table to the
// boxed fold on random vectors of every shape x NULL density x group count
// x batch size, with the argument's shape changing from batch to batch
// within its value class (int, float, duality-masked float and all-NULL
// batches of one numeric aggregate; raw strings and two dictionaries of one
// string aggregate).
func TestAggTableMatchesBoxedFold(t *testing.T) {
	sp := oraclePlan(t)
	families := map[string][]vecShape{
		"int":     {shapeInt},
		"float":   {shapeFloat},
		"dual":    {shapeDual},
		"numeric": {shapeInt, shapeFloat, shapeNullKind, shapeDual},
		"date":    {shapeDate, shapeNullKind},
		"bool":    {shapeBool},
		"string":  {shapeStr},
		"dict":    {shapeDictA},
		"strings": {shapeDictA, shapeStr, shapeDictB, shapeNullKind},
		"null":    {shapeNullKind},
	}
	const rows = 5000
	for name, family := range families {
		for _, nullEvery := range []int{0, 4, 1} {
			for _, groups := range []int{0, 1, 700} {
				for _, batchSize := range []int{1, 1024, 4096} {
					label := fmt.Sprintf("%s nulls=1/%d groups=%d batch=%d", name, nullEvery, groups, batchSize)
					rng := rand.New(rand.NewSource(int64(len(label))*7919 + int64(groups+batchSize+nullEvery)))
					var batches []aggBatch
					next := 0
					for lo := 0; lo < rows; lo += batchSize {
						n := min(batchSize, rows-lo)
						a := randomVector(rng, family[len(batches)%len(family)], n, nullEvery)
						args := make([]*Vector, len(sp.Aggs))
						for ai, ag := range sp.Aggs {
							if !ag.Call.Star {
								args[ai] = a
							}
						}
						refs := []*Vector{randomVector(rng, shapeInt, n, 5), randomVector(rng, shapeDictA, n, 5)}
						batches = append(batches, aggBatch{randomGids(rng, n, groups, &next), args, refs})
					}
					wantAggs, wantRefs, err := oracleAggregate(sp, batches, 0)
					if err != nil {
						t.Fatalf("%s: oracle: %v", label, err)
					}
					tab := newAggTable(sp)
					for _, b := range batches {
						if err := tab.foldBatch(b.gids, b.args, b.refs); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
					}
					got := tab.result(0)
					if got.n != next {
						t.Fatalf("%s: %d groups, want %d", label, got.n, next)
					}
					for ai, a := range sp.Aggs {
						vectorsIdentical(t, label+" "+a.Call.SQL(), got.aggs[ai], wantAggs[ai], true)
					}
					for ri := range sp.Carried {
						vectorsIdentical(t, fmt.Sprintf("%s carried %d", label, ri), got.refs[ri], wantRefs[ri], false)
					}
				}
			}
		}
	}
}

// TestAggTableGroupsWithoutRows covers the groups that exist without any
// row: the global group of an ungrouped aggregate over empty input and the
// empty group a decorrelated sub-query answers unmatched outer rows with —
// count 0, everything else NULL, carried references NULL.
func TestAggTableGroupsWithoutRows(t *testing.T) {
	sp := oraclePlan(t)
	wantAggs, wantRefs, err := oracleAggregate(sp, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := newAggTable(sp).result(1)
	for ai, a := range sp.Aggs {
		vectorsIdentical(t, a.Call.SQL(), got.aggs[ai], wantAggs[ai], true)
		if want := a.Func != "count"; got.aggs[ai].IsNull(0) != want {
			t.Errorf("%s over no rows: NULL = %v, want %v", a.Call.SQL(), !want, want)
		}
	}
	for ri := range sp.Carried {
		vectorsIdentical(t, "carried", got.refs[ri], wantRefs[ri], true)
	}
}

// TestAggTableMixedClassesDefer: a min/max whose argument changes value
// class between batches defers to the interpreter (the boxed builder refused
// such a result column); sums and counts have no class and carry on.
func TestAggTableMixedClassesDefer(t *testing.T) {
	cat := mapCatalog{"t": NewTable("t", TableColumn{Name: "a", Vec: intVec()})}
	for sql, wantErr := range map[string]bool{
		"SELECT min(a) FROM t":           true,
		"SELECT max(DISTINCT a) FROM t":  true,
		"SELECT sum(a), count(a) FROM t": false,
	} {
		p, err := plan.Build(cat, sql)
		if err != nil {
			t.Fatal(err)
		}
		tab := newAggTable(p.Root)
		gids := []int32{0, 0}
		args := func(v *Vector) []*Vector { return []*Vector{v, v}[:len(p.Root.Aggs)] }
		if err := tab.foldBatch(gids, args(intVec(12, 3)), nil); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		err = tab.foldBatch(gids, args(strVec("0.5", "x")), nil)
		if got := errors.Is(err, ErrUnsupported); got != wantErr {
			t.Errorf("%s: int then string batch: %v", sql, err)
		}
		if !wantErr {
			if got := tab.result(1).aggs[0].At(0); !scalarEqual(got, sqlsem.NewFloat(15.5)) {
				t.Errorf("%s = %#v, want 15.5", sql, got)
			}
		}
	}
}

// aggCatalog builds t(k, ai, af, ad, ab, s, x) with a column of every
// storable kind (strings dictionary-encoded by NewTable), NULLs in each, and
// u(k, y, z) for correlated sub-queries: k hits most but not all of t.k.
func aggCatalog(rows, groups int) mapCatalog {
	rng := rand.New(rand.NewSource(int64(rows + groups)))
	k := NewVector(sqlsem.KindInt, rows)
	x := NewVector(sqlsem.KindInt, rows)
	for i := 0; i < rows; i++ {
		k.Ints[i], x.Ints[i] = int64(rng.Intn(groups)), int64(i)
	}
	uk := randomVector(rng, shapeInt, rows/3, 9)
	for i := range uk.Ints {
		uk.Ints[i] = int64(rng.Intn(groups)) * 2
	}
	return mapCatalog{
		"t": NewTable("t",
			TableColumn{Name: "k", Vec: k},
			TableColumn{Name: "ai", Vec: randomVector(rng, shapeInt, rows, 6)},
			TableColumn{Name: "af", Vec: randomVector(rng, shapeFloat, rows, 6)},
			TableColumn{Name: "ad", Vec: randomVector(rng, shapeDate, rows, 6)},
			TableColumn{Name: "ab", Vec: randomVector(rng, shapeBool, rows, 6)},
			TableColumn{Name: "s", Vec: randomVector(rng, shapeStr, rows, 6)},
			TableColumn{Name: "x", Vec: x},
		),
		"u": NewTable("u",
			TableColumn{Name: "k", Vec: uk},
			TableColumn{Name: "y", Vec: randomVector(rng, shapeFloat, rows/3, 5)},
			TableColumn{Name: "z", Vec: randomVector(rng, shapeInt, rows/3, 5)},
		),
	}
}

// TestAggregateSerialParallelIdentical runs every function, plain and
// DISTINCT, over an argument of every kind — including expression arguments
// that come out duality-masked or as raw strings — grouped and global,
// serially and at Parallelism 8: results and counters must be identical.
func TestAggregateSerialParallelIdentical(t *testing.T) {
	cat := aggCatalog(9000, 300)
	args := []string{"ai", "af", "ad", "ab", "s",
		"CASE WHEN x % 3 = 0 THEN ai ELSE af END", // int/float duality
		"CASE WHEN x % 2 = 0 THEN s END",          // raw strings
		"CASE WHEN x < 2000 THEN ai ELSE af END"}  // the kind changes between batches
	for _, a := range args {
		aggs := fmt.Sprintf("count(*), count(%[1]s), count(DISTINCT %[1]s), sum(%[1]s), sum(DISTINCT %[1]s), avg(%[1]s), min(%[1]s), max(%[1]s), max(DISTINCT %[1]s)", a)
		for _, sql := range []string{
			"SELECT k, " + aggs + " FROM t GROUP BY k",
			"SELECT " + aggs + " FROM t",
			"SELECT " + aggs + " FROM t WHERE x < 0",
			"SELECT s, k, " + aggs + " FROM t WHERE x % 7 <> 0 GROUP BY s, k HAVING count(*) > 1",
		} {
			serial := run(t, cat, sql, Options{})
			resultsIdentical(t, sql, serial, run(t, cat, sql, Options{Parallelism: 8}))
			resultsIdentical(t, sql+" [bs=333]", run(t, cat, sql, Options{BatchSize: 333}), run(t, cat, sql, Options{Parallelism: 8, BatchSize: 333}))
		}
	}
}

// TestApplyAggMatchesPerRowFold checks the decorrelated aggregated sub-query
// against its definition — the boxed fold over the inner rows that share a
// correlation key — and its empty-group value against the fold over no rows
// (count 0, NULL for the rest).
func TestApplyAggMatchesPerRowFold(t *testing.T) {
	cat := aggCatalog(3000, 120)
	u := cat["u"]
	uk, uy, uz := u.Cols[0].Vec, u.Cols[1].Vec, u.Cols[2].Vec
	for _, tc := range []struct {
		call string
		arg  *Vector
	}{
		{"count(*)", nil}, {"count(z)", uz}, {"sum(y)", uy}, {"sum(z)", uz}, {"avg(z)", uz},
		{"min(y)", uy}, {"max(z)", uz}, {"count(DISTINCT z)", uz}, {"sum(DISTINCT y)", uy},
	} {
		sql := fmt.Sprintf("SELECT x FROM t WHERE (SELECT %s FROM u WHERE u.k = t.k) > 0", tc.call)
		p, err := plan.Build(cat, sql)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Vectorizable {
			t.Fatalf("%s: %s", sql, p.NotVectorizableReason)
		}
		stmt := sqlparser.Subqueries(p.Root.Stmt.Where)[0]
		ex := &executor{cat: cat, opts: Options{BatchSize: 512}, p: p, subs: map[*sqlparser.SelectStatement]*subState{}}
		if err := ex.prepareSub(stmt); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		as := ex.subs[stmt].apply
		if as == nil || as.shape != plan.ApplyAgg {
			t.Fatalf("%s: not decorrelated as ApplyAgg", sql)
		}
		agg := p.Sub(stmt).Aggs[0]
		fold := func(key int64, match bool) sqlsem.Value {
			st := newAggState(p.Sub(stmt))
			for j := 0; match && j < uk.Len(); j++ {
				if !uk.IsNull(j) && uk.Ints[j] == key {
					st.rows++
					if !agg.Call.Star {
						st.accs[0].fold(tc.arg.At(j), agg.Call.Distinct)
					}
				}
			}
			want, _ := st.accs[0].finalize(agg.Func, agg.Call.Star, st.rows)
			return want
		}
		if want := fold(0, false); !scalarEqual(as.emptyVal, want) {
			t.Errorf("%s: empty group = %#v, want %#v", sql, as.emptyVal, want)
		}
		seen := 0
		for j := 0; j < uk.Len(); j++ {
			if uk.IsNull(j) {
				continue
			}
			ht, kc := as.prober([]*Vector{uk})
			g := kc.lookup(ht, []*Vector{uk}, j)
			if g < 0 {
				t.Fatalf("%s: inner key %d has no group", sql, uk.Ints[j])
			}
			seen = max(seen, g+1)
			if got, want := as.groupVals.At(g), fold(uk.Ints[j], true); !scalarEqual(got, want) {
				t.Fatalf("%s: group of key %d = %#v, want %#v", sql, uk.Ints[j], got, want)
			}
		}
		if seen != as.groupVals.Len() || int64(seen) != ex.stats.Groups {
			t.Errorf("%s: %d groups seen, %d values, Stats.Groups %d", sql, seen, as.groupVals.Len(), ex.stats.Groups)
		}
	}
}

// TestAggregateAllocsDoNotScaleWithGroups: the state of a group lives in
// flat columns grown amortised, so a grouped execution over 20,000 groups
// allocates only logarithmically more often than one over 100 — not three
// objects per group as the per-group accumulators did.
func TestAggregateAllocsDoNotScaleWithGroups(t *testing.T) {
	const sql = "SELECT k, count(*), sum(ai), avg(af), min(ad), max(s), count(DISTINCT ai) FROM t GROUP BY k"
	allocs := func(groups int) float64 {
		cat := aggCatalog(40000, groups)
		p, err := plan.Build(cat, sql)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := ExecutePlan(cat, p, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(100), allocs(20000)
	t.Logf("allocations per execution: %.0f at 100 groups, %.0f at 20,000", few, many)
	// Doubling 40-odd slices from 100 to 20,000 elements is a few hundred
	// reallocations (more under -race); the per-group accumulators cost 60,000.
	if many-few > 2000 {
		t.Errorf("allocations grow with the groups: %.0f at 100 groups, %.0f at 20,000", few, many)
	}
}
