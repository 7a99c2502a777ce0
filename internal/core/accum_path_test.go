package core

import (
	"math"
	"sync"
	"testing"

	"twoface/internal/cluster"
	"twoface/internal/dense"
	"twoface/internal/gen"
)

// The stripe-local accumulation path must match the sequential reference on
// every registry matrix archetype — banded, uniform, hub-traffic, community
// web, and RMAT structures stress different stripe shapes and touched-row
// densities. 1e-9 absorbs the reassociation the per-stripe and per-worker
// buffering introduces relative to the sequential reference.
func TestExecAccumulationExactOnRegistry(t *testing.T) {
	for _, spec := range gen.Specs() {
		spec := spec
		t.Run(spec.Short, func(t *testing.T) {
			t.Parallel()
			const scale, k = 0.004, 16
			a := spec.Build(scale, 7)
			b := dense.Random(int(a.NumCols), k, 8)
			want, err := a.ToCSR().Mul(b)
			if err != nil {
				t.Fatal(err)
			}
			params := Params{P: 4, K: k, W: spec.ScaledWidth(scale)}
			prep, err := Preprocess(a, params)
			if err != nil {
				t.Fatal(err)
			}
			clu, err := cluster.New(4, cluster.Default())
			if err != nil {
				t.Fatal(err)
			}
			res, err := Exec(prep, b, clu, ExecOptions{AsyncWorkers: 3, SyncWorkers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !res.C.AlmostEqual(want, 1e-9) {
				d, _ := res.C.MaxAbsDiff(want)
				t.Fatalf("%s: Two-Face differs from reference by %v", spec.Short, d)
			}
		})
	}
}

// Force every remote stripe asynchronous with many workers per node so
// several run accumulators per rank fill concurrently and then merge into
// the rank's C block; run under -race by scripts/check.sh, and check the
// sums survive the merge.
func TestExecConcurrentStripeFlushRace(t *testing.T) {
	frac := 1.0
	m := buildCase(t, 160, 4000, 8, 91)
	params := basicParams(4, 8, 4)
	params.ForceSplit = &frac
	prep, err := Preprocess(m.coo, params)
	if err != nil {
		t.Fatal(err)
	}
	clu, err := cluster.New(4, cluster.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(prep, m.b, clu, ExecOptions{AsyncWorkers: 8, SyncWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.C.AlmostEqual(m.want, 1e-9) {
		d, _ := res.C.MaxAbsDiff(m.want)
		t.Fatalf("concurrent flush corrupted C by %v", d)
	}
}

// The executor's write pattern without the cluster machinery: eight rank
// goroutines own disjoint row blocks of one shared C; each runs two async
// workers that flush stripe-local accumulators into pooled run
// accumulators, then merges the workers into its block once they have
// joined. Under -race any write outside a rank's own block, or any read of
// a run accumulator before its worker finished, is reported.
func TestStripeFlushSharedOutputRace(t *testing.T) {
	const ranks, workers, rows, k, rounds = 8, 2, 32, 8, 25
	c := dense.New(ranks*rows, k)
	x := make([]float64, k)
	for i := range x {
		x[i] = 0.5
	}
	var rankWg sync.WaitGroup
	for rk := 0; rk < ranks; rk++ {
		rankWg.Add(1)
		go func() {
			defer rankWg.Done()
			np := &NodePart{RowLo: int32(rk * rows), RowHi: int32((rk + 1) * rows)}
			blk := nodeBlock(c, np)
			wss := make([]*asyncScratch, workers)
			for w := range wss {
				wss[w] = asyncScratchPool.Get().(*asyncScratch)
				wss[w].run.Begin(rows, k)
			}
			defer func() {
				for _, ws := range wss {
					asyncScratchPool.Put(ws)
				}
			}()
			var wg sync.WaitGroup
			for _, ws := range wss {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out := (*runSink)(&ws.run)
					for round := 0; round < rounds; round++ {
						ws.acc.Begin(rows, k)
						for row := int32(rows - 1); row >= 0; row-- {
							ws.acc.Accumulate(row, 1, x)
							ws.acc.Accumulate(row, 1, x)
						}
						for i, row := range ws.acc.Touched() {
							out.addRow(row, ws.acc.Vals(i))
						}
					}
				}()
			}
			wg.Wait()
			for _, ws := range wss {
				blk.merge(&ws.run)
			}
		}()
	}
	rankWg.Wait()
	want := float64(workers * rounds)
	for i, got := range c.Data {
		if got != want {
			t.Fatalf("C[%d] = %v, want %v", i, got, want)
		}
	}
}

// With one async worker the summation order of every C element is pinned —
// the sync panel's row first, then the worker's run accumulator — so
// repeated runs must agree bit for bit however the panel workers are
// scheduled. The matrix is checked to contain rows that receive a sync
// contribution and at least two async stripes' contributions, the rows
// where concurrent atomic adds used to reassociate freely. The ledgers,
// committed in unit order, must repeat exactly too once the remote-row
// cache is warm.
func TestExecDeterministicPinnedOrder(t *testing.T) {
	frac := 0.5
	m := buildCase(t, 160, 4000, 8, 33)
	params := basicParams(4, 8, 4)
	params.ForceSplit = &frac
	prep, err := Preprocess(m.coo, params)
	if err != nil {
		t.Fatal(err)
	}
	mixed := 0
	for i := range prep.Nodes {
		np := &prep.Nodes[i]
		syncRow := map[int32]bool{}
		for _, e := range np.Sync.Entries {
			syncRow[e.Row] = true
		}
		asyncStripes := map[int32]int{}
		for n := 0; n < np.Async.NumStripes(); n++ {
			seen := map[int32]bool{}
			for _, e := range np.Async.Entries[np.Async.StripePtr[n]:np.Async.StripePtr[n+1]] {
				if !seen[e.Row] {
					seen[e.Row] = true
					asyncStripes[e.Row]++
				}
			}
		}
		for row, n := range asyncStripes {
			if n >= 2 && syncRow[row] {
				mixed++
			}
		}
	}
	if mixed == 0 {
		t.Fatal("test matrix has no row with both sync and >=2 async contributions")
	}
	for _, sw := range []int{1, 4} {
		var first []uint64
		var firstBd []cluster.Breakdown
		for run := 0; run < 20; run++ {
			clu, err := cluster.New(4, cluster.Default())
			if err != nil {
				t.Fatal(err)
			}
			res, err := Exec(prep, m.b, clu, ExecOptions{AsyncWorkers: 1, SyncWorkers: sw})
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				if !res.C.AlmostEqual(m.want, 1e-9) {
					d, _ := res.C.MaxAbsDiff(m.want)
					t.Fatalf("SyncWorkers=%d: C differs from reference by %v", sw, d)
				}
				first = make([]uint64, len(res.C.Data))
				for i, v := range res.C.Data {
					first[i] = math.Float64bits(v)
				}
				continue
			}
			if run == 1 { // run 0 filled the remote-row cache; later runs hit it
				firstBd = res.Breakdowns
			}
			for i, bd := range res.Breakdowns {
				if bd != firstBd[i] {
					t.Fatalf("SyncWorkers=%d run %d: rank %d ledger %+v, first run %+v", sw, run, i, bd, firstBd[i])
				}
			}
			for i, v := range res.C.Data {
				if math.Float64bits(v) != first[i] {
					t.Fatalf("SyncWorkers=%d run %d: C[%d] bits %x, first run %x", sw, run, i, math.Float64bits(v), first[i])
				}
			}
		}
	}
}

// The pooled-scratch wrappers must agree with the allocating variants.
func TestScratchVariantsMatch(t *testing.T) {
	entries := randomCOO(50, 40, 300, 5).Entries
	// Column-major order, as async stripes store entries.
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && (entries[j].Col < entries[j-1].Col ||
			(entries[j].Col == entries[j-1].Col && entries[j].Row < entries[j-1].Row)); j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	want := uniqueCols(entries)
	got := appendUniqueCols(make([]int32, 0, 2), entries)
	if len(got) != len(want) {
		t.Fatalf("appendUniqueCols len %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("appendUniqueCols[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if cap(got) < len(entries) {
		t.Fatalf("scratch must be sized from the entry count, got cap %d", cap(got))
	}

	wantReg, wantBuf, wantFetched := coalesceRegions(want, 2, 0, 4)
	gotReg, gotBuf, gotFetched := coalesceRegionsInto(make([]cluster.Region, 0, 1), make([]int32, 1), want, 2, 0, 4)
	if gotFetched != wantFetched || len(gotReg) != len(wantReg) || len(gotBuf) != len(wantBuf) {
		t.Fatalf("coalesceRegionsInto shape mismatch")
	}
	for i := range wantReg {
		if gotReg[i] != wantReg[i] {
			t.Fatalf("region %d: %+v != %+v", i, gotReg[i], wantReg[i])
		}
	}
	for i := range wantBuf {
		if gotBuf[i] != wantBuf[i] {
			t.Fatalf("bufRow %d: %d != %d", i, gotBuf[i], wantBuf[i])
		}
	}
}

// A panel workspace's column table must serve repeats from the table and
// reset across panels (epochs).
func TestPanelScratchResolvedTable(t *testing.T) {
	ws := panelScratchPool.Get().(*panelScratch)
	defer panelScratchPool.Put(ws)
	calls := 0
	resolve := func(col int32) ([]float64, error) {
		calls++
		return []float64{float64(col)}, nil
	}
	ws.begin(10, 1)
	for _, c := range []int32{3, 7, 3, 3, 7} {
		row, err := ws.resolved(c, resolve)
		if err != nil {
			t.Fatal(err)
		}
		if row[0] != float64(c) {
			t.Fatalf("resolved(%d) = %v", c, row)
		}
	}
	if calls != 2 {
		t.Fatalf("resolver called %d times, want 2 (once per distinct column)", calls)
	}
	ws.begin(10, 1)
	if _, err := ws.resolved(3, resolve); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("new panel must re-resolve; calls = %d", calls)
	}
}
