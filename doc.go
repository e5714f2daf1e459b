// Package sqalpel is a Go reproduction of "SQALPEL: A database performance
// platform" (CIDR 2019): discriminative performance benchmarking driven by a
// query-space grammar, plus the platform to collect, manage and share the
// resulting performance facts.
//
// The implementation lives under internal/ (ARCHITECTURE.md maps each paper
// section onto the packages):
//
//   - internal/core is the public façade (projects, pools, targets, search,
//     analytics); start there.
//   - internal/grammar, internal/derive and internal/pool implement the
//     query-space DSL, the SQL-to-grammar conversion and the alter / expand /
//     prune morphing strategies.
//   - internal/metrics and internal/sched form the measurement plane:
//     repetition discipline with context cancellation and per-repetition
//     timeouts, fanned out across a worker pool with a result cache keyed by
//     (target, normalized SQL). The guided search is deterministic at any
//     worker count — parallelism changes wall-clock, never the findings.
//   - internal/engine, internal/vexec, internal/datagen and
//     internal/workload are the execution substrate: the engine registry
//     spans six engines across four SQL execution paradigms with genuinely
//     different performance profiles — tuplestore 1.0 (tuple-at-a-time),
//     columba 1.0/2.0 (column-at-a-time), and on the one typed executor
//     core internal/vexec: vektor 1.0/2.0 (batch-vectorized) and fusil 1.0
//     (data-centric compiled: the scan→filter segment fused into one loop
//     of compiled closures, same operators above it) — plus
//     deterministic TPC-H / SSB / airtraffic data generators and the
//     corresponding query workloads. The typed data layer the vectorized
//     and compiled engines scan is encoded at import: dictionary-encoded
//     string columns (predicates, joins and group-bys run on integer
//     codes) and per-block zone maps that let every scan skip blocks its
//     pushed-down predicates prove empty, deterministically at any worker
//     count.
//   - internal/trace is the observability plane: the EXPLAIN plan-JSON
//     document and the plan-derived operator-id scheme every engine keys its
//     execution spans by, so traces from different paradigms compare
//     operator by operator (sqalpel explain -run prints them; the webui
//     renders them side by side; tracing is opt-in and allocation-free when
//     off).
//   - internal/server, internal/webui, internal/repository, internal/catalog
//     and internal/driver form the sharing platform (projects, access
//     control, the task queue with batch leasing and lease-expiry re-queue,
//     results, analytics pages) and its experiment driver, which pulls task
//     batches and measures them on its own worker pool so many drivers can
//     crowd-source one experiment without double-measuring. The repository
//     is a sharded, write-ahead-logged store: mutations are fsynced to
//     their project shard's log before they return, restart recovers from
//     snapshot plus log replay, and a crash-point fault-injection harness
//     proves that kill -9 at any record boundary loses no acknowledged
//     measurement and double-leases no task.
//   - internal/lint and cmd/sqalpel-vet are the enforced-invariants plane:
//     five go/analysis-style analyzers (mapiterdet, lockmarshal,
//     sqlsemroute, tracenilalloc, walack) that mechanically hold the tree
//     to the determinism, lock-discipline, NULL-semantics, trace-seam and
//     WAL-durability contracts the earlier PRs established, as a blocking
//     CI gate (scripts/lint.sh, or go vet -vettool). See ARCHITECTURE.md,
//     "Enforced invariants".
//
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper plus the scheduler scaling table; EXPERIMENTS.md records the
// measured outcomes next to the published ones.
package sqalpel
