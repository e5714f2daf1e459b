// Package analytics implements the built-in visual-analytics computations of
// the sqalpel platform: the experiment history with morph annotations
// (Figure 7 of the paper), the dominant-component analysis of lexical terms
// (Figure 2), relative speedups between systems, versions or database sizes
// (Figure 3), query differentials (Figure 4) and CSV export for off-line
// post-processing.
//
// The package is deliberately independent of the repository and engine
// layers: it operates on plain Run records, which both the platform server
// and the benchmark harness can produce.
package analytics

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Run is one measured execution of one query variant on one target system.
type Run struct {
	// QueryID is the pool-local id of the query variant.
	QueryID int
	// SQL is the query text.
	SQL string
	// Strategy records how the variant was created (baseline, random,
	// alter, expand, prune).
	Strategy string
	// ParentID is the variant this one was morphed from (0 for seeds).
	ParentID int
	// Components is the number of lexical components of the variant.
	Components int
	// Terms are the lexical literal texts the variant contains; used by the
	// dominant-component analysis.
	Terms []string
	// Target identifies the system (and version / host / database size) the
	// run was measured on.
	Target string
	// Seconds is the representative wall-clock time; ignored when Error is
	// set.
	Seconds float64
	// Error carries the failure message of queries that did not execute.
	Error string
}

// Failed reports whether the run errored.
func (r Run) Failed() bool { return r.Error != "" }

// HistoryPoint is one node of the experiment-history plot: execution time
// per query, coloured by morph action, sized by the number of components,
// with failed queries flagged.
type HistoryPoint struct {
	Seq        int
	QueryID    int
	ParentID   int
	Strategy   string
	Components int
	Seconds    float64
	IsError    bool
	SQL        string
}

// History builds the experiment-history series for one target: queries in
// pool order, each annotated with its morph action and provenance edge.
func History(runs []Run, target string) []HistoryPoint {
	var filtered []Run
	for _, r := range runs {
		if r.Target == target {
			filtered = append(filtered, r)
		}
	}
	sort.SliceStable(filtered, func(i, j int) bool { return filtered[i].QueryID < filtered[j].QueryID })
	out := make([]HistoryPoint, 0, len(filtered))
	for i, r := range filtered {
		out = append(out, HistoryPoint{
			Seq:        i + 1,
			QueryID:    r.QueryID,
			ParentID:   r.ParentID,
			Strategy:   r.Strategy,
			Components: r.Components,
			Seconds:    r.Seconds,
			IsError:    r.Failed(),
			SQL:        r.SQL,
		})
	}
	return out
}

// Component is the cost attribution of one lexical term.
type Component struct {
	// Term is the lexical literal text.
	Term string
	// WithMean and WithoutMean are the mean execution times of the queries
	// containing and not containing the term.
	WithMean    float64
	WithoutMean float64
	// Delta is WithMean - WithoutMean: the marginal cost attributed to the
	// term. The larger, the more dominant the component.
	Delta float64
	// Queries is the number of successful runs containing the term.
	Queries int
}

// Components attributes execution time to lexical terms for one target. Two
// estimators are combined:
//
//  1. Paired differences: whenever two measured variants differ by exactly
//     one term (the natural outcome of the expand/prune morphing
//     strategies), the time difference is a direct sample of that term's
//     marginal cost. This is the primary estimator.
//  2. With/without means: for terms without such pairs, the mean runtime of
//     the variants containing the term is compared against the variants not
//     containing it.
//
// The result is sorted by descending marginal cost, so the first entry is
// the dominant component (the paper's example: the sum_charge expression of
// TPC-H Q1 on a column store).
func Components(runs []Run, target string) []Component {
	type sample struct {
		terms   map[string]bool
		sig     string
		seconds float64
	}
	var samples []sample
	bySig := map[string][]float64{}
	terms := map[string]bool{}
	for _, r := range runs {
		if r.Target != target || r.Failed() {
			continue
		}
		set := map[string]bool{}
		for _, t := range r.Terms {
			set[t] = true
			terms[t] = true
		}
		s := sample{terms: set, sig: termSignature(set, ""), seconds: r.Seconds}
		samples = append(samples, s)
		bySig[s.sig] = append(bySig[s.sig], r.Seconds)
	}

	sorted := make([]string, 0, len(terms))
	for term := range terms {
		sorted = append(sorted, term)
	}
	sort.Strings(sorted)
	var out []Component
	for _, term := range sorted {
		c := Component{Term: term}
		var with, without, paired []float64
		for _, s := range samples {
			if !s.terms[term] {
				without = append(without, s.seconds)
				continue
			}
			with = append(with, s.seconds)
			// A paired sample exists when some other variant has exactly the
			// same term set minus this term.
			if peers, ok := bySig[termSignature(s.terms, term)]; ok && len(peers) > 0 {
				paired = append(paired, s.seconds-mean(peers))
			}
		}
		c.Queries = len(with)
		c.WithMean = mean(with)
		c.WithoutMean = mean(without)
		switch {
		case len(paired) > 0:
			c.Delta = mean(paired)
		case len(with) > 0 && len(without) > 0:
			c.Delta = c.WithMean - c.WithoutMean
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Delta != out[j].Delta {
			return out[i].Delta > out[j].Delta
		}
		return out[i].Term < out[j].Term
	})
	return out
}

// termSignature builds a canonical key for a term set, optionally excluding
// one term (used to find the "same query minus this term" peers).
func termSignature(set map[string]bool, exclude string) string {
	keys := make([]string, 0, len(set))
	//lint:ordered the keys are sorted below before they are joined
	for t := range set {
		if t == exclude {
			continue
		}
		keys = append(keys, t)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x00")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var total float64
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// SpeedupPoint is the relative performance of one query variant between two
// targets (different systems, versions or database sizes).
type SpeedupPoint struct {
	QueryID    int
	Components int
	// BaseSeconds and OtherSeconds are the times on the two targets.
	BaseSeconds  float64
	OtherSeconds float64
	// Factor is OtherSeconds / BaseSeconds: how many times slower the other
	// target is (values below 1 mean it is faster).
	Factor float64
}

// SpeedupSummary aggregates a speedup series.
type SpeedupSummary struct {
	Points []SpeedupPoint
	// BaselineFactor is the factor of the baseline query (query id 1) when
	// present, the number the paper quotes ("the baseline query runs about a
	// factor 8 slower on a 10 times larger instance").
	BaselineFactor float64
	Min, Max       float64
	Median         float64
}

// Pair is one query measured successfully on two targets.
type Pair struct {
	QueryID int
	// A and B point at the runs of the two targets.
	A, B *Run
	// Ratio is A.Seconds / B.Seconds: above 1 the query runs faster on B.
	Ratio float64
}

// Pairs is the one ratio of the instrument: per query id it takes the last
// successful run of targets a and b (in input order) and pairs them when
// both times are positive, in query-id order. A zero time is below the
// clock's resolution, so it yields no ratio on either side, and a ratio is
// pairwise: runs on any other target do not affect it.
func Pairs(runs []Run, a, b string) []Pair {
	lastA, lastB := make(map[int]int, len(runs)), make(map[int]int, len(runs))
	for i, r := range runs {
		if r.Failed() {
			continue
		}
		switch r.Target {
		case a:
			lastA[r.QueryID] = i
		case b:
			lastB[r.QueryID] = i
		}
	}
	ids := make([]int, 0, len(lastA))
	for id := range lastA {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]Pair, 0, len(ids))
	for _, id := range ids {
		ib, ok := lastB[id]
		if !ok {
			continue
		}
		ra, rb := &runs[lastA[id]], &runs[ib]
		if ra.Seconds > 0 && rb.Seconds > 0 {
			out = append(out, Pair{QueryID: id, A: ra, B: rb, Ratio: ra.Seconds / rb.Seconds})
		}
	}
	return out
}

// Speedup summarises Pairs(runs, otherTarget, baseTarget): the per-query
// factor plus its spread.
func Speedup(runs []Run, baseTarget, otherTarget string) SpeedupSummary {
	var sum SpeedupSummary
	var factors []float64
	for _, p := range Pairs(runs, otherTarget, baseTarget) {
		sum.Points = append(sum.Points, SpeedupPoint{
			QueryID:      p.QueryID,
			Components:   p.B.Components,
			BaseSeconds:  p.B.Seconds,
			OtherSeconds: p.A.Seconds,
			Factor:       p.Ratio,
		})
		factors = append(factors, p.Ratio)
		if p.QueryID == 1 {
			sum.BaselineFactor = p.Ratio
		}
	}
	if len(factors) == 0 {
		return sum
	}
	sort.Float64s(factors)
	sum.Min = factors[0]
	sum.Max = factors[len(factors)-1]
	sum.Median = factors[len(factors)/2]
	if len(factors)%2 == 0 {
		sum.Median = (factors[len(factors)/2-1] + factors[len(factors)/2]) / 2
	}
	return sum
}

// Differential is the paper's query-differential page: the token-level
// difference between two query formulations plus their performance on every
// target both were measured on.
type Differential struct {
	QueryA, QueryB int
	// OnlyA and OnlyB are the tokens appearing in only one of the two
	// queries.
	OnlyA []string
	OnlyB []string
	// Times maps target name to the pair of times [timeA, timeB].
	Times map[string][2]float64
}

// Diff computes the differential between two query variants given all runs.
func Diff(runs []Run, idA, idB int) (Differential, error) {
	var sqlA, sqlB string
	times := map[string][2]float64{}
	var foundA, foundB bool
	for _, r := range runs {
		switch r.QueryID {
		case idA:
			sqlA = r.SQL
			foundA = true
			if !r.Failed() {
				pair := times[r.Target]
				pair[0] = r.Seconds
				times[r.Target] = pair
			}
		case idB:
			sqlB = r.SQL
			foundB = true
			if !r.Failed() {
				pair := times[r.Target]
				pair[1] = r.Seconds
				times[r.Target] = pair
			}
		}
	}
	if !foundA || !foundB {
		return Differential{}, fmt.Errorf("queries %d and %d are not both present in the runs", idA, idB)
	}
	onlyA, onlyB := tokenDiff(sqlA, sqlB)
	return Differential{QueryA: idA, QueryB: idB, OnlyA: onlyA, OnlyB: onlyB, Times: times}, nil
}

// tokenDiff returns the tokens unique to each side, sorted, treating the
// token lists as multisets.
func tokenDiff(a, b string) (onlyA, onlyB []string) {
	ta, tb := tokens(a), tokens(b)
	for len(ta) > 0 || len(tb) > 0 {
		switch {
		case len(tb) == 0 || len(ta) > 0 && ta[0] < tb[0]:
			onlyA, ta = append(onlyA, ta[0]), ta[1:]
		case len(ta) == 0 || tb[0] < ta[0]:
			onlyB, tb = append(onlyB, tb[0]), tb[1:]
		default:
			ta, tb = ta[1:], tb[1:]
		}
	}
	return onlyA, onlyB
}

// tokens splits a query at blanks, commas and parentheses, sorted.
func tokens(s string) []string {
	out := strings.FieldsFunc(s, func(r rune) bool {
		switch r {
		case ' ', '\t', '\n', ',', '(', ')':
			return true
		}
		return false
	})
	sort.Strings(out)
	return out
}

// WriteCSV exports runs in the platform's CSV format for off-line
// post-processing.
func WriteCSV(w io.Writer, runs []Run) error {
	cw := csv.NewWriter(w)
	header := []string{"query_id", "parent_id", "strategy", "components", "target", "seconds", "error", "sql"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range runs {
		rec := []string{
			strconv.Itoa(r.QueryID),
			strconv.Itoa(r.ParentID),
			r.Strategy,
			strconv.Itoa(r.Components),
			r.Target,
			formatSeconds(r.Seconds, r.Failed()),
			r.Error,
			r.SQL,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatSeconds(s float64, failed bool) string {
	if failed || math.IsNaN(s) {
		return ""
	}
	return strconv.FormatFloat(s, 'f', 6, 64)
}
