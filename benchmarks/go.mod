// The benchmark of record is a module of its own so that the repository's
// build (go build ./... && go test ./...) is unchanged by it. Its import
// path is rooted under "sqalpel/", which is what lets it import the
// platform's internal packages; the replace points at the checkout root.
module sqalpel/benchmarks

go 1.22

require sqalpel v0.0.0

replace sqalpel => ../
