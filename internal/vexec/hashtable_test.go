package vexec

import (
	"fmt"
	"testing"

	"sqalpel/internal/sqlsem"
)

// TestHashTableTypedInt locks in the int fast path: dense first-seen group
// ids, duplicate detection across growth, and NULL keys grouping together.
func TestHashTableTypedInt(t *testing.T) {
	ht := newHashTable(4)
	keys := []int64{7, 3, 7, 11, 3, 7}
	wantGroups := []int{0, 1, 0, 2, 1, 0}
	for i, k := range keys {
		g, isNew := ht.getOrInsertInt(k)
		if g != wantGroups[i] {
			t.Errorf("key %d: group = %d, want %d", k, g, wantGroups[i])
		}
		if isNew != (i == 0 || i == 1 || i == 3) {
			t.Errorf("key %d at %d: isNew = %v", k, i, isNew)
		}
	}
	if ht.numGroups() != 3 {
		t.Fatalf("groups = %d, want 3", ht.numGroups())
	}
	if g := ht.lookupInt(11); g != 2 {
		t.Errorf("lookup 11 = %d, want 2", g)
	}
	if g := ht.lookupInt(999); g != -1 {
		t.Errorf("lookup miss = %d, want -1", g)
	}

	// NULL keys are one group of their own.
	g1, isNew := ht.getOrInsertNull()
	if !isNew || g1 != 3 {
		t.Errorf("first null: group %d new %v", g1, isNew)
	}
	if g2, again := ht.getOrInsertNull(); again || g2 != g1 {
		t.Errorf("second null: group %d new %v", g2, again)
	}
}

// TestHashTableGrowth drives the table through many doublings; every key
// must keep its insertion-order group id.
func TestHashTableGrowth(t *testing.T) {
	ht := newHashTable(2)
	const n = 50000
	for i := 0; i < n; i++ {
		g, isNew := ht.getOrInsertInt(int64(i * 31))
		if !isNew || g != i {
			t.Fatalf("insert %d: group %d new %v", i, g, isNew)
		}
	}
	for i := 0; i < n; i++ {
		if g := ht.lookupInt(int64(i * 31)); g != i {
			t.Fatalf("lookup %d: group %d", i, g)
		}
	}
	if ht.numGroups() != n {
		t.Fatalf("groups = %d", ht.numGroups())
	}

	hs := newHashTable(2)
	for i := 0; i < 10000; i++ {
		g, isNew := hs.getOrInsertStr(fmt.Sprintf("k%d", i))
		if !isNew || g != i {
			t.Fatalf("str insert %d: group %d new %v", i, g, isNew)
		}
	}
	if g := hs.lookupStr("k123"); g != 123 {
		t.Fatalf("str lookup = %d", g)
	}
}

// TestHashTableByteMode exercises compound keys: reused scratch encodings,
// arena-stored keys, and the '|' separator keeping [ab, c] and [a, bc]
// apart.
func TestHashTableByteMode(t *testing.T) {
	ht := newByteKeyTable(4)
	a := strVec("ab", "a", "ab")
	b := strVec("c", "bc", "c")
	kc := keyCoder{mode: modeBytes}
	g0, new0 := kc.getOrInsert(ht, []*Vector{a, b}, 0)
	g1, new1 := kc.getOrInsert(ht, []*Vector{a, b}, 1)
	g2, new2 := kc.getOrInsert(ht, []*Vector{a, b}, 2)
	if !new0 || !new1 || new2 {
		t.Errorf("newness = %v %v %v", new0, new1, new2)
	}
	if g0 != 0 || g1 != 1 || g2 != 0 {
		t.Errorf("groups = %d %d %d", g0, g1, g2)
	}
}

// TestHashTableMigration starts a group table on typed int keys, then
// feeds a float batch: the table must migrate to the byte encoding and
// keep matching int-valued floats onto the integer groups, mirroring the
// old string-key normalization.
func TestHashTableMigration(t *testing.T) {
	ht := newHashTable(4)
	ints := intVec(1, 2, 3)
	kc := ht.prepare([]*Vector{ints})
	for i := 0; i < 3; i++ {
		if g, _ := kc.getOrInsert(ht, []*Vector{ints}, i); g != i {
			t.Fatalf("int row %d: group %d", i, g)
		}
	}
	floats := floatVec(2.0, 2.5, 1.0)
	kc = ht.prepare([]*Vector{floats})
	if ht.mode != modeBytes {
		t.Fatalf("mode after float batch = %v, want byte mode", ht.mode)
	}
	g, isNew := kc.getOrInsert(ht, []*Vector{floats}, 0)
	if isNew || g != 1 {
		t.Errorf("float 2.0: group %d new %v, want group 1 (int 2)", g, isNew)
	}
	g, isNew = kc.getOrInsert(ht, []*Vector{floats}, 1)
	if !isNew || g != 3 {
		t.Errorf("float 2.5: group %d new %v, want new group 3", g, isNew)
	}
	g, _ = kc.getOrInsert(ht, []*Vector{floats}, 2)
	if g != 0 {
		t.Errorf("float 1.0: group %d, want group 0 (int 1)", g)
	}
}

// TestHashTableNullMigration checks the typed NULL group survives the
// migration to byte mode and keeps matching encoded NULL rows.
func TestHashTableNullMigration(t *testing.T) {
	ht := newHashTable(4)
	k := intVec(5, 0)
	k.SetNull(1)
	kc := ht.prepare([]*Vector{k})
	kc.getOrInsert(ht, []*Vector{k}, 0) // group 0: int 5
	gNull, _ := kc.getOrInsert(ht, []*Vector{k}, 1)
	if gNull != 1 {
		t.Fatalf("null group = %d", gNull)
	}
	s := strVec("x")
	kc = ht.prepare([]*Vector{s}) // migrates
	nk := NewNullVector(1)
	kc2 := ht.prepare([]*Vector{nk})
	if g, isNew := kc2.getOrInsert(ht, []*Vector{nk}, 0); isNew || g != gNull {
		t.Errorf("encoded null: group %d new %v, want group %d", g, isNew, gNull)
	}
}

// TestJointMode pins down the mode decision across join sides.
func TestJointMode(t *testing.T) {
	iv, sv, fv := intVec(1), strVec("a"), floatVec(1.5)
	dv := NewVector(sqlsem.KindDate, 1)
	nv := NewNullVector(1)
	cases := []struct {
		sides []([]*Vector)
		want  keyMode
	}{
		{[][]*Vector{{iv}, {iv}}, modeInt},
		{[][]*Vector{{sv}, {sv}}, modeStr},
		{[][]*Vector{{iv}, {dv}}, modeBytes}, // num vs date class never matches
		{[][]*Vector{{iv}, {fv}}, modeBytes}, // floats need the normalizing encoding
		{[][]*Vector{{iv}, {nv}}, modeInt},   // all-NULL side is a wildcard
		{[][]*Vector{{nv}, {nv}}, modeInt},
		{[][]*Vector{{iv, sv}}, modeBytes}, // compound keys
	}
	for i, tc := range cases {
		if mode, _, _ := jointMode(tc.sides...); mode != tc.want {
			t.Errorf("case %d: mode = %v, want %v", i, mode, tc.want)
		}
	}
}

// TestGetOrInsertKeyOf merges typed and byte tables the way parallel
// aggregation does, across same-mode and mixed-mode morsels.
func TestGetOrInsertKeyOf(t *testing.T) {
	// Two int morsel tables with overlapping keys.
	a, b := newHashTable(4), newHashTable(4)
	av, bv := intVec(10, 20), intVec(20, 30)
	kcA := a.prepare([]*Vector{av})
	kcB := b.prepare([]*Vector{bv})
	kcA.getOrInsert(a, []*Vector{av}, 0)
	kcA.getOrInsert(a, []*Vector{av}, 1)
	kcB.getOrInsert(b, []*Vector{bv}, 0)
	kcB.getOrInsert(b, []*Vector{bv}, 1)

	global := newHashTable(4)
	var buf []byte
	var got []int
	for _, src := range []*hashTable{a, b} {
		for g := 0; g < src.numGroups(); g++ {
			var gg int
			gg, _, buf = global.getOrInsertKeyOf(src, g, buf)
			got = append(got, gg)
		}
	}
	want := []int{0, 1, 1, 2} // 10, 20, 20 (dup), 30 in morsel order
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge groups = %v, want %v", got, want)
		}
	}

	// A byte-mode morsel (float keys) merging into the int global table
	// must migrate it and still unify int-valued floats.
	c := newHashTable(4)
	cv := floatVec(20.0, 2.5)
	kcC := c.prepare([]*Vector{cv})
	kcC.getOrInsert(c, []*Vector{cv}, 0)
	kcC.getOrInsert(c, []*Vector{cv}, 1)
	var gg int
	var isNew bool
	gg, isNew, buf = global.getOrInsertKeyOf(c, 0, buf)
	if isNew || gg != 1 {
		t.Errorf("float 20.0 merge: group %d new %v, want group 1", gg, isNew)
	}
	gg, isNew, _ = global.getOrInsertKeyOf(c, 1, buf)
	if !isNew || gg != 3 {
		t.Errorf("float 2.5 merge: group %d new %v, want new group 3", gg, isNew)
	}
}
