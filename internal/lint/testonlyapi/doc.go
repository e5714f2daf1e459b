// Package testonlyapi holds the module-wide check that no exported function
// or method exists for the tests alone (testonlyapi_test.go). An export with
// no reference from a non-test file of the module or of the benchmark
// module (benchmarks/, which replaces sqalpel with this tree and is loaded
// beside it) is dead product code that its tests keep alive; it is deleted,
// moved into an export_test.go, or given the product caller it was written
// for. One that stays on purpose (library API that README documents, the
// paper's tables, a test harness) says why on its declaration:
//
//	//lint:api <reason>
//
// The check needs every package of both modules at once, which an analyzer
// run one package at a time cannot see; so it is a test over the loader
// rather than an analyzer of sqalpel-vet.
package testonlyapi
