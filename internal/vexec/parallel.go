package vexec

import (
	"sync"
	"sync/atomic"
	"time"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/trace"
)

// This file implements morsel-driven intra-query parallelism. The unit of
// work is a morsel: one BatchSize window of a random-access row source (a
// base-table scan or a materialized intermediate). Morsels fan out across
// a bounded worker pool; every merge step walks the morsel results in
// morsel-index order, never in completion order, so the output of each
// parallel operator is bit-identical to its serial twin at any worker
// count:
//
//   - scan→filter pipelines window the source per morsel, filter with
//     thread-local counters and concatenate the surviving row ids in morsel
//     order — exactly the selection the serial pipeline's drain collects;
//   - hash aggregation discovers groups per morsel in thread-local typed
//     hash tables, merges them into the global table in morsel order
//     (reproducing the serial first-seen group order), then folds every
//     group's rows in global row order — so even the float sums, whose
//     addition order is observable, match the serial fold bit for bit;
//   - hash joins partition the build side by key hash, build the partition
//     tables concurrently (each partition preserves build-row insertion
//     order), and probe morsel-wise, concatenating the match pairs in
//     morsel order — the serial probe order.
//
// Workers never touch the executor's shared stats; they accumulate local
// Stats that the coordinating goroutine sums in morsel order afterwards.

// parallelism returns the morsel worker cap of this execution; 1 means
// every operator runs its serial twin.
func (ex *executor) parallelism() int {
	if ex.opts.Parallelism > 1 {
		return ex.opts.Parallelism
	}
	return 1
}

// parallelFor runs fn(i) for every i in [0, n) on at most p goroutines
// pulling indices from a shared counter; it returns when all n calls are
// done. fn must confine its writes to per-index state. A panicking call is
// re-raised on the calling goroutine, where the caller's recover reaches it.
func parallelFor(p, n int, fn func(int)) {
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var once sync.Once
	var panicked any
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { panicked = r })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// --- morsel sources -----------------------------------------------------------

// morselSource is a random-access row source the morsel driver windows:
// the full-length batch of a base-table scan or a materialized intermediate.
// Windows are zero-copy (Batch.window), like the serial operators'; workers
// read the shared full batch through them only.
type morselSource struct {
	full  *Batch
	rows  int
	scan  bool        // base-table scan: windows count into RowsScanned
	span  *trace.Span // the scan's span; nil when tracing is off
	table *Table      // zone-map owner; nil for materialized intermediates
	zones []ZonePred  // compiled zone predicates; empty disables skipping
}

// numMorsels returns how many BatchSize windows cover the source.
func (src *morselSource) numMorsels(bs int) int {
	return (src.rows + bs - 1) / bs
}

// morselBounds returns the row range of morsel m.
func (src *morselSource) morselBounds(m, bs int) (lo, hi int) {
	lo = m * bs
	hi = lo + bs
	if hi > src.rows {
		hi = src.rows
	}
	return lo, hi
}

// filterLayer is one filterOp of a decomposed pipeline: its conjuncts plus
// its trace span, kept separate per layer so pushed-down and residual
// filters stay attributable to their own operator ids under parallelism.
type filterLayer struct {
	conjuncts []sqlparser.Expr
	span      *trace.Span
}

// filterMorsel applies the filter layers to one kept run of a morsel in
// application order; like the serial filter stack, a layer that empties
// the batch stops the remaining layers from running. When d is non-nil it
// accumulates the per-layer span deltas at d[1:] (d[0] is the source
// window's delta, filled by the caller) — accumulates, because zone-map
// skipping can split one morsel into several kept runs, each entering the
// filter stack as its own batch. A layer's delta is recorded exactly when
// the layer runs, which is the serial filterOp's per-entering-batch
// accounting, so merged traces match the serial ones bit for bit.
func filterMorsel(ex *executor, b *Batch, layers []filterLayer, st *plan.Stats, d []trace.SpanDelta) error {
	var t0 time.Time
	if d != nil {
		t0 = time.Now()
	}
	for li := range layers {
		if err := applyConjuncts(ex, b, layers[li].conjuncts, st); err != nil {
			return err
		}
		if d != nil {
			now := time.Now()
			d[li+1].WallNS += now.Sub(t0).Nanoseconds()
			d[li+1].Rows += int64(b.Len())
			d[li+1].Batches++
			t0 = now
		}
		if b.Len() == 0 {
			return nil
		}
	}
	return nil
}

// filterRuns drives rows [lo, hi) of the source — one morsel — through the
// filter layers: each run of zone-satisfiable blocks is windowed, counted
// and filtered as its own batch, and keep sees the batches with survivors.
// Morsels start on BatchSize boundaries, which are block-aligned whenever
// zones are attached, so the kept runs are exactly the batches the serial
// scan emits for this window. d, when non-nil, takes the span deltas: the
// source window's at d[0], the layers' behind it.
func (src *morselSource) filterRuns(ex *executor, layers []filterLayer, lo, hi int, st *plan.Stats, d []trace.SpanDelta, keep func(*Batch)) error {
	runs, skipped := keptRuns(nil, src.table, src.zones, lo, hi)
	if skipped > 0 {
		st.BlocksSkipped += skipped
		if d != nil {
			d[0].BlocksSkipped += skipped
		}
	}
	for _, run := range runs {
		var t0 time.Time
		if d != nil {
			t0 = time.Now()
		}
		b := src.full.window(run[0], run[1])
		if src.scan {
			st.RowsScanned += int64(run[1] - run[0])
		}
		st.Batches++
		if d != nil {
			d[0].WallNS += time.Since(t0).Nanoseconds()
			d[0].Rows += int64(run[1] - run[0])
			d[0].Batches++
		}
		if err := filterMorsel(ex, b, layers, st, d); err != nil {
			return err
		}
		if b.Len() > 0 {
			keep(b)
		}
	}
	return nil
}

// mergeMorselDeltas folds one morsel's span deltas into the source and layer
// spans; callers walk the morsels in order. d is nil when tracing is off.
func mergeMorselDeltas(src *morselSource, layers []filterLayer, d []trace.SpanDelta) {
	if d == nil {
		return
	}
	src.span.Merge(d[0])
	for li := range layers {
		layers[li].span.Merge(d[li+1])
	}
}

// splitPipeline decomposes a scan→filter pipeline into its morsel source
// and the filter layers applied above it, in application order. ok is
// false for pipelines the morsel driver cannot fan out (FROM-less inputs,
// partially consumed operators, non-dense rewinds).
func splitPipeline(op operator) (morselSource, []filterLayer, bool) {
	var layers []filterLayer
	for {
		switch o := op.(type) {
		case *filterOp:
			// This filter runs after everything below it: what is already
			// collected came from operators above, so prepend.
			layers = append([]filterLayer{{conjuncts: o.conjuncts, span: o.span}}, layers...)
			op = o.child
		case *scanOp:
			if o.pos != 0 {
				return morselSource{}, nil, false
			}
			return morselSource{full: o.full, rows: o.full.n, scan: true, span: o.span, table: o.table, zones: o.zones}, layers, true
		case *matOp:
			if o.pos != 0 || o.b.sel != nil {
				return morselSource{}, nil, false
			}
			return morselSource{full: o.b, rows: o.b.n}, layers, true
		default:
			return morselSource{}, nil, false
		}
	}
}

// --- parallel scan→filter materialization -------------------------------------

// materializeOp drains a pipeline into one batch like materialize, but fans
// morsel-splittable pipelines across the worker pool first.
func (ex *executor) materializeOp(op operator) (*Batch, error) {
	p := ex.parallelism()
	bs := ex.opts.BatchSize
	if p <= 1 {
		return materialize(op)
	}
	src, layers, ok := splitPipeline(op)
	if !ok || src.rows <= bs {
		return materialize(op)
	}
	nm := src.numMorsels(bs)
	outs := make([][]int32, nm) // per morsel: the source rows that survive
	errs := make([]error, nm)
	stats := make([]plan.Stats, nm)
	var deltas [][]trace.SpanDelta
	if ex.tracer != nil {
		deltas = make([][]trace.SpanDelta, nm)
	}
	parallelFor(p, nm, func(m int) {
		lo, hi := src.morselBounds(m, bs)
		if err := ex.checkDeadline(); err != nil {
			errs[m] = err
			return
		}
		var d []trace.SpanDelta
		if deltas != nil {
			d = make([]trace.SpanDelta, len(layers)+1)
			deltas[m] = d
		}
		errs[m] = src.filterRuns(ex, layers, lo, hi, &stats[m], d, func(b *Batch) {
			if len(layers) > 0 {
				outs[m] = appendRowIDs(outs[m], b)
			}
		})
	})
	for m, st := range stats {
		ex.stats.Add(st)
		if deltas != nil {
			mergeMorselDeltas(&src, layers, deltas[m])
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if len(layers) == 0 {
		return src.full.selected(nil, src.rows), nil
	}
	total := 0
	for _, chunk := range outs {
		total += len(chunk)
	}
	ids := make([]int32, 0, total)
	for _, chunk := range outs {
		ids = append(ids, chunk...)
	}
	return src.full.selected(ids, total), nil
}

// --- parallel hash aggregation ------------------------------------------------

// aggMorsel is the thread-local state of one aggregation morsel: the
// evaluated key/argument/reference vectors over the surviving rows plus
// the local group table.
type aggMorsel struct {
	n         int
	keyVecs   []*Vector
	argVecs   []*Vector
	refVecs   []*Vector
	table     *hashTable
	rowGroups []int32 // per surviving row: local group id, global after phase 2
	stats     plan.Stats
	deltas    []trace.SpanDelta // per-layer span deltas; nil when tracing is off
	err       error
}

// parallelHashAggregate is the morsel-parallel twin of the serial
// hashAggregate loop, in three phases. Phase 1 (parallel): every morsel
// filters its window, evaluates the key/arg/ref expressions and assigns
// thread-local group ids. Phase 2 (serial, morsel order): the local tables
// merge into one global table — visiting local groups in local insertion
// order reproduces the serial first-seen group order exactly — and every
// morsel's rows are remapped to global ids and admitted to the one
// aggregation table. Phase 3 (parallel over aggregates): each aggregate
// folds the morsels in morsel order, so every group sees its rows in global
// row order — the serial fold order; no partial states are merged — and
// order-sensitive accumulations (float sums) come out bit-identical to the
// serial path at any worker count.
func (ex *executor) parallelHashAggregate(src morselSource, layers []filterLayer, sp *plan.Select) (*aggResult, error) {
	p := ex.parallelism()
	bs := ex.opts.BatchSize
	grouped := len(sp.Stmt.GroupBy) > 0
	nm := src.numMorsels(bs)
	morsels := make([]aggMorsel, nm)
	parallelFor(p, nm, func(m int) {
		mo := &morsels[m]
		lo, hi := src.morselBounds(m, bs)
		if err := ex.checkDeadline(); err != nil {
			mo.err = err
			return
		}
		if ex.tracer != nil {
			mo.deltas = make([]trace.SpanDelta, len(layers)+1)
		}
		// Filter each kept run as its own batch — the serial scan's batch
		// segmentation — then stitch the survivors into one batch (a view
		// of the source) for the element-wise key/argument evaluation below.
		var kept []*Batch
		mo.err = src.filterRuns(ex, layers, lo, hi, &mo.stats, mo.deltas, func(b *Batch) { kept = append(kept, b) })
		if mo.err != nil {
			return
		}
		var b *Batch
		switch len(kept) {
		case 0:
			return
		case 1:
			b = kept[0]
		default:
			var ids []int32
			for _, k := range kept {
				ids = appendRowIDs(ids, k)
			}
			b = src.full.take(ids)
		}
		n := b.Len()
		mo.n = n
		mo.stats.AggRows += int64(n)
		var err error
		mo.keyVecs, mo.argVecs, mo.refVecs, err = aggBatchVectors(ex, b, sp)
		if err != nil {
			mo.err = err
			return
		}
		// Aggregates without GROUP BY form one global group: id 0 throughout.
		mo.rowGroups = make([]int32, n)
		if grouped {
			mo.table = newHashTable(64)
			kc := mo.table.prepare(mo.keyVecs)
			for j := range mo.rowGroups {
				g, _ := kc.getOrInsert(mo.table, mo.keyVecs, j)
				mo.rowGroups[j] = int32(g)
			}
		}
	})
	for m := range morsels {
		ex.stats.Add(morsels[m].stats)
		mergeMorselDeltas(&src, layers, morsels[m].deltas)
	}
	for m := range morsels {
		if morsels[m].err != nil {
			return nil, morsels[m].err
		}
	}

	// Phase 2: merge the thread-local tables in morsel order.
	t := newAggTable(sp)
	global := newHashTable(64)
	var buf []byte
	var remap []int32
	for m := range morsels {
		mo := &morsels[m]
		if mo.n == 0 {
			continue
		}
		if grouped {
			remap = growTo(remap[:0], mo.table.numGroups())
			for lg := range remap {
				var g int
				g, _, buf = global.getOrInsertKeyOf(mo.table, lg, buf)
				remap[lg] = int32(g)
			}
			for j, lg := range mo.rowGroups {
				mo.rowGroups[j] = remap[lg]
			}
		}
		t.admit(mo.rowGroups, mo.refVecs)
	}

	// Phase 3: fold every aggregate over the morsels in morsel order.
	errs := make([]error, len(sp.Aggs))
	parallelFor(p, len(sp.Aggs), func(ai int) {
		for m := range morsels {
			if mo := &morsels[m]; mo.n > 0 && errs[ai] == nil {
				errs[ai] = t.fold(ai, mo.rowGroups, mo.argVecs[ai])
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ex.finishAggregate(t, grouped), nil
}

// --- parallel hash join -------------------------------------------------------

// parallelJoinPairs is the partitioned twin of joinPairs: build rows are
// routed to 2^k partitions by key hash, the partition tables build
// concurrently (each preserving build-row insertion order — a key lives in
// exactly one partition, so its match chain is the serial one), and the
// probe side fans out morsel-wise with the pair chunks concatenated in
// morsel order.
func (ex *executor) parallelJoinPairs(nBuild, nProbe int, bVecs, pVecs []*Vector) ([]int32, []int32, error) {
	p := ex.parallelism()
	bs := ex.opts.BatchSize
	mode, class, dict := jointMode(bVecs, pVecs)

	nPart := 1
	bits := uint(0)
	for nPart < p && nPart < 64 {
		nPart *= 2
		bits++
	}

	// Route every build row to its key-hash partition, caching the hashes
	// so the build workers never re-hash (byte mode still re-encodes at
	// insertion for the arena compare, but pays the FNV pass only once).
	hashes := make([]uint64, nBuild)
	nbm := (nBuild + bs - 1) / bs
	parallelFor(p, nbm, func(m int) {
		kc := keyCoder{mode: mode}
		lo := m * bs
		hi := lo + bs
		if hi > nBuild {
			hi = nBuild
		}
		for i := lo; i < hi; i++ {
			hashes[i] = kc.hash(bVecs, i)
		}
	})
	// Bucket the row indices per partition (exact-sized, in row order) so
	// each build worker walks only its own rows.
	counts := make([]int, nPart)
	for _, h := range hashes {
		counts[h>>(64-bits)]++
	}
	buckets := make([][]int32, nPart)
	for pt, c := range counts {
		buckets[pt] = make([]int32, 0, c)
	}
	for i, h := range hashes {
		pt := h >> (64 - bits)
		buckets[pt] = append(buckets[pt], int32(i))
	}

	// Build the partition tables concurrently; next is shared but each row
	// index belongs to exactly one partition worker.
	tables := make([]*hashTable, nPart)
	lists := make([]joinLists, nPart)
	buildRows := make([]int64, nPart)
	next := make([]int32, nBuild)
	for i := range next {
		next[i] = -1
	}
	parallelFor(p, nPart, func(pt int) {
		rows := buckets[pt]
		ht := newHashTable(len(rows))
		ht.setMode(mode, class, dict)
		kc := keyCoder{mode: mode}
		jl := joinLists{next: next}
		var inserted int64
		for _, i := range rows {
			if nullKeyRow(bVecs, int(i)) {
				// NULL join keys never match (see nullKeyRow); the serial
				// joinPairs skips them identically.
				continue
			}
			inserted++
			g, isNew := kc.getOrInsertHashed(ht, bVecs, int(i), hashes[i])
			jl.insert(g, i, isNew)
		}
		tables[pt] = ht
		lists[pt] = jl
		buildRows[pt] = inserted
	})
	for _, n := range buildRows {
		ex.stats.JoinBuildRows += n
	}

	// Probe morsel-wise; chunks concatenate in morsel order, which is the
	// serial probe order. The join-size guard is a running total shared by
	// all probe workers (checked after every probe row's match chain), so
	// the serial path's memory bound holds under parallelism too: an
	// over-limit join stops allocating within one chain per worker of
	// crossing the limit. The error condition — total matches exceed
	// MaxJoinRows — is the serial one, so it fires identically at every
	// worker count.
	type pairChunk struct {
		probe, build []int32
		probed       int64 // non-NULL-key probe rows, for JoinProbeRows
		err          error
	}
	npm := (nProbe + bs - 1) / bs
	chunks := make([]pairChunk, npm)
	var matches atomic.Int64
	parallelFor(p, npm, func(m int) {
		kc := keyCoder{mode: mode}
		ch := &chunks[m]
		if err := ex.checkDeadline(); err != nil {
			ch.err = err
			return
		}
		lo := m * bs
		hi := lo + bs
		if hi > nProbe {
			hi = nProbe
		}
		for i := lo; i < hi; i++ {
			if nullKeyRow(pVecs, i) {
				continue
			}
			ch.probed++
			h := kc.hash(pVecs, i)
			pt := h >> (64 - bits)
			g := kc.lookupHashed(tables[pt], pVecs, i, h)
			if g < 0 {
				continue
			}
			before := len(ch.probe)
			for r := lists[pt].head[g]; r >= 0; r = next[r] {
				ch.probe = append(ch.probe, int32(i))
				ch.build = append(ch.build, r)
			}
			if added := len(ch.probe) - before; added > 0 {
				if ch.err = ex.opts.Limits.JoinRows(int(matches.Add(int64(added)))); ch.err != nil {
					return
				}
			}
		}
	})
	total := 0
	for m := range chunks {
		if chunks[m].err != nil {
			return nil, nil, chunks[m].err
		}
		ex.stats.JoinProbeRows += chunks[m].probed
		total += len(chunks[m].probe)
	}
	probeIdx := make([]int32, 0, total)
	buildIdx := make([]int32, 0, total)
	for m := range chunks {
		probeIdx = append(probeIdx, chunks[m].probe...)
		buildIdx = append(buildIdx, chunks[m].build...)
	}
	return probeIdx, buildIdx, nil
}
