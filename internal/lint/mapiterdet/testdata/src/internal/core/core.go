// Package core is the mapiterdet fixture for a package that outputs run
// records: the same term list built two ways.
package core

// termsInMapOrder re-introduces the term loop of the run records before
// terms had one order: literals collected by ranging the per-class map, so
// a query's term list (and every record built from it) changed run to run.
func termsInMapOrder(literals map[string][]string) []string {
	var terms []string
	for _, lits := range literals { // want `iteration over map literals in determinism-critical package`
		terms = append(terms, lits...)
	}
	return terms
}

// termsInClassOrder is the fix shape: the classes come as a sorted slice,
// and the map is only indexed. Exempt without annotation.
func termsInClassOrder(classes []string, literals map[string][]string) []string {
	var terms []string
	for _, class := range classes {
		terms = append(terms, literals[class]...)
	}
	return terms
}
