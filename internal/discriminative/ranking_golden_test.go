package discriminative

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sqalpel/internal/metrics"
)

var updateRankingGolden = flag.Bool("update-ranking-golden", false, "rewrite testdata/ranking_golden.txt from the current ranking")

// rankingReport renders every ordered pair's Better list and the Matrix of a
// measured search: entry ids and the ratio's bits, so a golden written from
// it pins the ranking exactly.
func rankingReport(s *Search) string {
	var b strings.Builder
	for _, fast := range s.Targets() {
		for _, slow := range s.Targets() {
			if fast == slow {
				continue
			}
			fmt.Fprintf(&b, "better %s>%s:", fast, slow)
			for _, f := range s.Better(fast, slow, 0) {
				fmt.Fprintf(&b, " %d:%x", f.Outcome.Entry.ID, f.Ratio)
			}
			b.WriteString("\n")
		}
	}
	for _, c := range s.Matrix() {
		fmt.Fprintf(&b, "matrix %s>%s count %d", c.Fast, c.Slow, c.Count)
		if c.Best != nil {
			fmt.Fprintf(&b, " best %d:%x", c.Best.Outcome.Entry.ID, c.Best.Ratio)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestRankingGolden pins Better and Matrix on simulated two- and
// three-target searches to the ranking the search produced before it ranked
// through analytics. No input has a zero time or a failure: the rules for
// those are tested on their own.
func TestRankingGolden(t *testing.T) {
	var b strings.Builder
	two := map[string]metrics.Target{
		"sysA": &simTarget{base: 200 * time.Microsecond, perComment: 12 * time.Millisecond},
		"sysB": &simTarget{base: 200 * time.Microsecond, perFilter: 12 * time.Millisecond},
	}
	s, err := New(newNationPool(t), two, Options{Runs: 1, GrowPerRound: 4, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Run("sysA", "sysB", 2)
	b.WriteString("# two targets, two guided rounds\n")
	b.WriteString(rankingReport(s))

	three := map[string]metrics.Target{
		"fast":   &simTarget{base: 50 * time.Microsecond},
		"steady": &simTarget{base: 5 * time.Millisecond},
		"picky":  &simTarget{base: 50 * time.Microsecond, perComment: 20 * time.Millisecond, perFilter: time.Millisecond},
	}
	s, err = New(newNationPool(t), three, Options{Runs: 1, GrowPerRound: 6, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Run("fast", "picky", 1)
	b.WriteString("# three targets, one guided round\n")
	b.WriteString(rankingReport(s))

	path := filepath.Join("testdata", "ranking_golden.txt")
	if *updateRankingGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("ranking differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
