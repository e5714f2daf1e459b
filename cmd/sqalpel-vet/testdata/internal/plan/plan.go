// Package plan is a fixture of the sqalpel-vet test: its import path ends
// in internal/plan, a determinism-critical package, and it emits a map's
// keys in iteration order, which mapiterdet must flag.
package plan

// Keys returns the keys of m in map order.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
