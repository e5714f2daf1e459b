// Package tpcsurvey reproduces Table 1 of the paper: the census of publicly
// available TPC benchmark results (number of published reports per benchmark
// and the systems they cover) that motivates sqalpel's public performance
// repository. The census itself is survey data taken from tpc.org as of the
// paper's writing; this package ships it as structured data together with
// the report generator that prints the table.
package tpcsurvey

import (
	"fmt"
	"strings"
)

// Entry is one row of the census.
type Entry struct {
	// Benchmark is the TPC benchmark (and scale-factor bracket for TPC-H).
	Benchmark string
	// Reports is the number of publicly accessible result publications.
	Reports int
	// Systems lists the database systems appearing in those publications.
	Systems []string
}

// census is Table 1 of the paper.
var census = []Entry{
	{"TPC-C", 368, []string{"Oracle", "IBM DB2", "MS SQLserver", "Sybase", "SymfoWARE"}},
	{"TPC-DI", 0, nil},
	{"TPC-DS", 1, []string{"Intel"}},
	{"TPC-E", 77, []string{"MS SQLserver"}},
	{"TPC-H <= SF-300", 252, []string{"MS SQLserver", "Oracle", "EXASOL", "Actian Vector 5.0", "Sybase", "IBM DB2", "Informix", "Teradata", "Paraccel"}},
	{"TPC-H SF-1000", 4, []string{"MS SQLserver"}},
	{"TPC-H SF-3000", 6, []string{"MS SQLserver", "Actian Vector 5.0"}},
	{"TPC-H SF-10000", 9, []string{"MS SQLserver"}},
	{"TPC-H SF-30000", 1, []string{"MS SQLserver"}},
	{"TPC-VMS", 0, nil},
	{"TPCx-BB", 4, []string{"Cloudera"}},
	{"TPCx-HCI", 0, nil},
	{"TPCx-HS", 0, nil},
	{"TPCx-IoT", 1, []string{"Hbase"}},
}

// Census returns the census rows in the paper's order.
//
//lint:api the paper's Table 1, reproduced by its test
func Census() []Entry {
	out := make([]Entry, len(census))
	copy(out, census)
	return out
}

// TotalReports returns the total number of published reports across all
// benchmarks.
func TotalReports() int {
	total := 0
	for _, e := range census {
		total += e.Reports
	}
	return total
}

// BenchmarksWithoutResults returns the benchmarks that have no publicly
// accessible results at all — the observation the paper leads with.
func BenchmarksWithoutResults() []string {
	var out []string
	for _, e := range census {
		if e.Reports == 0 {
			out = append(out, e.Benchmark)
		}
	}
	return out
}

// DistinctSystems returns the distinct systems mentioned across the census.
func DistinctSystems() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range census {
		for _, s := range e.Systems {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// Render prints the census in the layout of the paper's Table 1.
func Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %-8s %s\n", "benchmark", "reports", "systems reported")
	for _, e := range census {
		fmt.Fprintf(&sb, "%-18s %-8d %s\n", e.Benchmark, e.Reports, strings.Join(e.Systems, ", "))
	}
	fmt.Fprintf(&sb, "total reports: %d, distinct systems: %d, benchmarks without public results: %d\n",
		TotalReports(), len(DistinctSystems()), len(BenchmarksWithoutResults()))
	return sb.String()
}
