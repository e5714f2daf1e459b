package plan

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestStatsListingsCoverEveryField reflects over Stats so a counter added
// to the struct cannot be forgotten in Add or Map: every field must be an
// int64, must accumulate, and must surface under its snake_case key — the
// 15 keys the platform has stored results under so far.
func TestStatsListingsCoverEveryField(t *testing.T) {
	var one, sum Stats
	v := reflect.ValueOf(&one).Elem()
	var want []string
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
		var key strings.Builder
		for j, r := range v.Type().Field(i).Name {
			if r >= 'A' && r <= 'Z' {
				if j > 0 {
					key.WriteByte('_')
				}
				r += 'a' - 'A'
			}
			key.WriteRune(r)
		}
		want = append(want, key.String())
	}
	sum.Add(one)
	sum.Add(one)
	m := sum.Map()
	for i, key := range want {
		if got, ok := m[key]; !ok || got != int64(2*(i+1)) {
			t.Errorf("field %s: Map()[%q] = %d (present %v) after two Adds of %d", v.Type().Field(i).Name, key, got, ok, i+1)
		}
	}
	var got []string
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	keys := "agg_rows batches blocks_skipped filter_passes groups guard_casts hash_joins intermediates_materialized " +
		"join_build_rows join_probe_rows loop_joins rows_returned rows_scanned subquery_executions tuples_materialized"
	if strings.Join(got, " ") != keys {
		t.Errorf("Map() keys = %v, want the 15 keys %s", got, keys)
	}
}

// TestLimits: the zero Limits imposes no budget, ResolveLimits applies the
// default join guard and turns a timeout into a deadline, and the guards
// report the two budget errors.
func TestLimits(t *testing.T) {
	var none Limits
	if none.Expired() != nil || none.JoinRows(1<<40) != nil || none.CrossJoin(1<<40, 1<<40) != nil {
		t.Error("the zero Limits must impose no budget")
	}
	l := ResolveLimits(0, 0)
	if !l.Deadline.IsZero() || l.MaxJoinRows != defaultMaxJoinRows {
		t.Errorf("ResolveLimits(0, 0) = %+v", l)
	}
	if l.JoinRows(defaultMaxJoinRows) != nil || !errors.Is(l.JoinRows(defaultMaxJoinRows+1), ErrJoinRows) {
		t.Error("JoinRows must fire only past the guard")
	}
	// 2^32 x 2^32 wraps to 0 in a 64-bit product.
	if l.CrossJoin(2000, 2000) != nil || l.CrossJoin(0, 1<<40) != nil || !errors.Is(l.CrossJoin(1<<32, 1<<32), ErrJoinRows) {
		t.Error("CrossJoin must divide before multiplying")
	}
	l = ResolveLimits(time.Hour, 7)
	if l.MaxJoinRows != 7 || l.Expired() != nil || time.Until(l.Deadline) > time.Hour {
		t.Errorf("ResolveLimits(1h, 7) = %+v", l)
	}
	if l = ResolveLimits(time.Nanosecond, 0); !errors.Is(l.Expired(), ErrTimeBudget) {
		t.Error("a passed deadline must report ErrTimeBudget")
	}
}
