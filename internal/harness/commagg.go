package harness

import (
	"fmt"
	"math"

	"twoface/internal/cluster"
	"twoface/internal/core"
	"twoface/internal/gen"
)

// CommAggRow measures, for one registry matrix, what the owner-batched
// one-sided path and the cross-run row cache buy over one request per async
// stripe. All byte/request numbers come from the cluster's honest transfer
// counters, not the cost model.
type CommAggRow struct {
	Matrix string `json:"matrix"`

	// PerStripeGets is the plan's async stripe count: the requests a
	// one-get-per-stripe schedule would issue for the same fetch sets.
	PerStripeGets int64 `json:"per_stripe_gets"`

	// Batched path, first (cold-cache) run.
	BatchedGets    int64 `json:"batched_gets"`
	BatchedRegions int64 `json:"batched_regions"`
	ColdBytes      int64 `json:"cold_bytes"`

	// Batched path, second run on the same plan and dense input: the row
	// cache serves repeats, so gets and bytes drop further.
	WarmGets  int64 `json:"warm_gets"`
	WarmBytes int64 `json:"warm_bytes"`

	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	SavedBytes     int64   `json:"saved_bytes"`
	GetReduction   float64 `json:"get_reduction"`   // PerStripeGets / BatchedGets
	WarmByteRatio  float64 `json:"warm_byte_ratio"` // WarmBytes / ColdBytes
	MaxRelDiff     float64 `json:"max_rel_diff"`    // cold C vs the CSR reference
	ResultsAgree   bool    `json:"results_agree"`   // MaxRelDiff <= 1e-9
	ModeledBatched float64 `json:"modeled_batched_seconds"`

	// Overlap: the warm run's makespan against the serialized one derived
	// from the same run's ledgers. Every category is charged identically
	// whether or not multicasts overlap panel compute, so the serial
	// makespan is max over ranks of NodeTime with SyncOverlap zeroed, and
	// OverlapGain = ModeledSerial / ModeledPipelined >= 1 by construction
	// (strictly > 1 wherever sync comm and sync compute coexist).
	ModeledPipelined float64 `json:"modeled_pipelined_seconds"` // warm run
	ModeledSerial    float64 `json:"modeled_serial_seconds"`    // warm run, overlap credit removed
	OverlapSeconds   float64 `json:"overlap_seconds"`           // cluster-wide SyncOverlap sum
	OverlapGain      float64 `json:"overlap_gain"`              // ModeledSerial / ModeledPipelined
}

// CommAggregation runs Two-Face on every registry matrix twice on one plan —
// cold cache, then warm cache — and reports the request/byte deltas against
// a one-get-per-stripe schedule. This is the headline evidence for the
// aggregation scheduler: same fetched rows, a fraction of the requests, and
// repeat runs served partly from the cache.
func (c Config) CommAggregation(k int) ([]CommAggRow, *Table, error) {
	cc := c.normalize()
	rows := make([]CommAggRow, 0, len(gen.Specs()))
	cols := []string{"per-stripe gets", "batched gets", "get redux", "warm bytes/cold", "cache hit%", "overlap gain"}
	t := NewTable(fmt.Sprintf("Extension: one-sided aggregation and row cache, K=%d, p=%d", k, cc.P),
		MatrixNames(), cols)
	for i, s := range gen.Specs() {
		w := cc.BuildWorkload(s)
		row, err := cc.commAggRow(w, k)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.Short, err)
		}
		row.Matrix = s.Short
		rows = append(rows, row)
		t.Set(i, 0, float64(row.PerStripeGets), "%.0f")
		t.Set(i, 1, float64(row.BatchedGets), "%.0f")
		t.Set(i, 2, row.GetReduction, "%.2fx")
		t.Set(i, 3, row.WarmByteRatio, "%.3f")
		t.Set(i, 4, 100*row.CacheHitRate, "%.0f%%")
		t.Set(i, 5, row.OverlapGain, "%.3fx")
	}
	t.Note = "Per-stripe gets is the plan's async stripe count, the requests of a one-get-per-stripe schedule; the batched path aggregates consecutive same-owner stripes into single requests (get redux = per-stripe/batched) and a per-rank row cache serves repeat runs (warm bytes/cold < 1). Overlap gain is the serial-sync makespan over the pipelined one (multicasts overlapped with panel compute), never below 1x."
	return rows, t, nil
}

// commAggRow measures one matrix. Arithmetic stays on so the cold result can
// be checked element-wise against the CSR reference.
func (c Config) commAggRow(w *Workload, k int) (CommAggRow, error) {
	cc := c.normalize()
	var row CommAggRow
	b := w.B(k)

	// One prep, one cluster, two runs: the first is cold, the second hits
	// the row cache (per-run counters reset at each Exec entry).
	params := core.Params{P: cc.P, K: k, W: w.W, Coef: cc.Coef(), MemBudgetElems: cc.MemBudget()}
	prep, err := core.Preprocess(w.A, params)
	if err != nil {
		return row, err
	}
	row.PerStripeGets = prep.Stats.AsyncStripes
	clu, err := cluster.New(cc.P, cc.Net())
	if err != nil {
		return row, err
	}
	opts := core.ExecOptions{AsyncWorkers: cc.AsyncWorkers, SyncWorkers: cc.Workers}
	cold, err := core.Exec(prep, b, clu, opts)
	if err != nil {
		return row, err
	}
	ct := cold.TotalTransfer
	row.BatchedGets, row.BatchedRegions, row.ColdBytes = ct.OneSidedGets, ct.OneSidedMsgs, ct.OneSidedBytes
	row.ModeledBatched = cold.ModeledSeconds

	warm, err := core.Exec(prep, b, clu, opts)
	if err != nil {
		return row, err
	}
	wt := warm.TotalTransfer
	row.WarmGets, row.WarmBytes = wt.OneSidedGets, wt.OneSidedBytes
	row.CacheHits, row.CacheMisses = warm.RowCache.Hits, warm.RowCache.Misses
	row.CacheHitRate = warm.RowCache.HitRate()
	row.SavedBytes = warm.RowCache.SavedBytes

	row.ModeledPipelined = warm.ModeledSeconds
	for _, bd := range warm.Breakdowns {
		row.OverlapSeconds += bd.SyncOverlap
		bd.SyncOverlap = 0
		row.ModeledSerial = math.Max(row.ModeledSerial, bd.NodeTime())
	}
	if row.ModeledPipelined > 0 {
		row.OverlapGain = row.ModeledSerial / row.ModeledPipelined
	}

	if row.BatchedGets > 0 {
		row.GetReduction = float64(row.PerStripeGets) / float64(row.BatchedGets)
	} else if row.PerStripeGets == 0 {
		row.GetReduction = 1
	}
	if row.ColdBytes > 0 {
		row.WarmByteRatio = float64(row.WarmBytes) / float64(row.ColdBytes)
	} else {
		row.WarmByteRatio = 1
	}
	want, err := w.A.ToCSR().Mul(b)
	if err != nil {
		return row, err
	}
	row.MaxRelDiff = maxRelDiff(want.Data, cold.C.Data)
	row.ResultsAgree = row.MaxRelDiff <= 1e-9
	return row, nil
}

// maxRelDiff returns the maximum per-element relative difference.
func maxRelDiff(a, b []float64) float64 {
	var maxRel float64
	for i, v := range a {
		wv := b[i]
		if v == wv {
			continue
		}
		rel := math.Abs(v-wv) / math.Max(math.Max(math.Abs(v), math.Abs(wv)), 1)
		if rel > maxRel {
			maxRel = rel
		}
	}
	return maxRel
}
