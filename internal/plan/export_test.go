package plan

// CountNameLookups runs fn and returns how many column-name lookups
// (schemaFind, the only place a column is searched by name) happened
// meanwhile. Not for concurrent use: the observer is a package variable.
func CountNameLookups(fn func()) int {
	n := 0
	schemaFindObserver = func() { n++ }
	defer func() { schemaFindObserver = nil }()
	fn()
	return n
}
