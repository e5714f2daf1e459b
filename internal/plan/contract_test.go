package plan

import (
	"context"
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
// join guard and takes the caller's context, and the guards report the
// budget errors: ErrTimeBudget for a passed deadline, ErrCancelled (which
// is also context.Canceled) for a cancellation, ErrJoinRows for a join.
func TestLimits(t *testing.T) {
	var none Limits
	if none.Expired() != nil || none.JoinRows(1<<40) != nil || none.CrossJoin(1<<40, 1<<40) != nil {
		t.Error("the zero Limits must impose no budget")
	}
	l := ResolveLimits(nil)
	if l.Expired() != nil || l.MaxJoinRows != JoinGuard {
		t.Errorf("ResolveLimits(nil) = %+v", l)
	}
	if l.JoinRows(JoinGuard) != nil || !errors.Is(l.JoinRows(JoinGuard+1), ErrJoinRows) {
		t.Error("JoinRows must fire only past the guard")
	}
	// 2^32 x 2^32 wraps to 0 in a 64-bit product.
	if l.CrossJoin(2000, 2000) != nil || l.CrossJoin(0, 1<<40) != nil || !errors.Is(l.CrossJoin(1<<32, 1<<32), ErrJoinRows) {
		t.Error("CrossJoin must divide before multiplying")
	}
	if l = ResolveLimits(context.Background()); l.Expired() != nil || l.MaxJoinRows != JoinGuard {
		t.Errorf("ResolveLimits(Background) = %+v", l)
	}

	live, cancelLive := context.WithTimeout(context.Background(), time.Hour)
	defer cancelLive()
	if err := ResolveLimits(live).Expired(); err != nil {
		t.Errorf("a live context reports %v", err)
	}
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	err := ResolveLimits(expired).Expired()
	if !errors.Is(err, ErrTimeBudget) || errors.Is(err, context.Canceled) || err.Error() != "query exceeded its time budget" {
		t.Errorf("an expired context reports %v, want %v", err, ErrTimeBudget)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	l = ResolveLimits(cancelled)
	if err := l.Expired(); err != nil {
		t.Errorf("before the cancel: %v", err)
	}
	cancel()
	if err := l.Expired(); !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) || errors.Is(err, ErrTimeBudget) {
		t.Errorf("a cancelled context reports %v, want %v wrapping %v", err, ErrCancelled, context.Canceled)
	}
}

// TestExpiredAllocatesNothing: the poll every executor runs per batch (and
// the interpreters every 512 rows) allocates nothing, with no budget and
// under a live context alike.
func TestExpiredAllocatesNothing(t *testing.T) {
	live, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for i, l := range []Limits{{}, ResolveLimits(live)} {
		if n := testing.AllocsPerRun(1000, func() { _ = l.Expired() }); n != 0 {
			t.Errorf("Expired on %s Limits: %.1f allocations per call", []string{"zero", "live"}[i], n)
		}
	}
}
