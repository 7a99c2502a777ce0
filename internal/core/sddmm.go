package core

import (
	"fmt"
	"time"

	"twoface/internal/cluster"
	"twoface/internal/dense"
	"twoface/internal/sparse"
)

// Distributed SDDMM (paper section 9: "With simple modifications, the
// Two-Face algorithm should also be applicable to ... SDDMM, which exhibits
// very similar patterns to SpMM"). The kernel computes
// C_ij = A_ij * dot(X[i,:], Y[j,:]) over A's nonzeros. Under 1D
// partitioning, X rows are node-local (indexed by A rows, like C in SpMM)
// and Y rows follow A's column structure (indexed like B in SpMM), so the
// communication problem — which Y rows to move, collectively or one-sidedly
// — is *identical* to SpMM's: an existing SpMM Prep is reused verbatim, and
// the run goes through the SpMM executor itself (execNode) with only the
// per-unit arithmetic swapped for sddmmKernel. Y therefore moves exactly as
// B would — pipelined multicasts, owner-batched gets, the cross-run row
// cache, degrade-on-exhaustion — and a cold SDDMM charges the same ledgers
// as a cold Multiply. Every output entry belongs to exactly one work unit,
// so each lands in its own value slot without locks.

// SDDMMResult is the outcome of one distributed SDDMM.
type SDDMMResult struct {
	// C holds A's sparsity structure with sampled values, sorted row-major.
	C *sparse.COO
	// Breakdowns and ModeledSeconds mirror core.Result.
	Breakdowns     []cluster.Breakdown
	ModeledSeconds float64
	Wall           time.Duration
	// Transfer and TotalTransfer mirror core.Result's per-rank counters.
	Transfer      []cluster.TransferStats
	TotalTransfer cluster.TransferStats
}

// ExecSDDMM runs distributed SDDMM using an SpMM preprocessing plan. X must
// be NumRows x K, Y must be NumCols x K with K = prep.Params.K. A's own
// pattern is the sample, so opts.SampleKeep does not apply. SDDMM is
// fail-clean: a crash aborts the run even on a cluster with recovery on.
func ExecSDDMM(prep *Prep, x, y *dense.Matrix, clu *cluster.Cluster, opts ExecOptions) (*SDDMMResult, error) {
	params := prep.Params
	if x.Rows != int(prep.Layout.NumRows) || x.Cols != params.K {
		return nil, fmt.Errorf("core: X is %dx%d, want %dx%d", x.Rows, x.Cols, prep.Layout.NumRows, params.K)
	}
	if y.Rows != int(prep.Layout.NumCols) || y.Cols != params.K {
		return nil, fmt.Errorf("core: Y is %dx%d, want %dx%d", y.Rows, y.Cols, prep.Layout.NumCols, params.K)
	}
	if clu.P() != params.P {
		return nil, fmt.Errorf("core: cluster has %d nodes, prep expects %d", clu.P(), params.P)
	}
	opts = opts.normalize()
	opts.SampleKeep = 0
	clu.Reset()

	caches := prep.attachRowCaches(y)
	kerns := make([]*sddmmKernel, params.P)
	start := time.Now()
	runErr := clu.Run(func(r *cluster.Rank) error {
		np := &prep.Nodes[r.ID]
		kern := &sddmmKernel{x: x, k: params.K}
		if !opts.SkipCompute {
			kern.sync = make([]float64, len(np.Sync.Entries))
			kern.async = make([]float64, len(np.Async.Entries))
		}
		kerns[r.ID] = kern
		return execNode(prep, y, r, nil, kern, opts, caches, nil)
	})
	if runErr != nil {
		return nil, runErr
	}
	res := finishRun(clu, caches, time.Since(start))

	c := &sparse.COO{NumRows: prep.Layout.NumRows, NumCols: prep.Layout.NumCols}
	if !opts.SkipCompute {
		for i, kern := range kerns {
			if kern == nil { // a rank another process executes
				continue
			}
			np := &prep.Nodes[i]
			c.Entries = appendSampled(c.Entries, np.RowLo, np.Sync.Entries, kern.sync)
			c.Entries = appendSampled(c.Entries, np.RowLo, np.Async.Entries, kern.async)
		}
		c.SortRowMajor()
	}
	return &SDDMMResult{
		C:              c,
		Breakdowns:     res.Breakdowns,
		ModeledSeconds: res.ModeledSeconds,
		Wall:           res.Wall,
		Transfer:       res.Transfer,
		TotalTransfer:  res.TotalTransfer,
	}, nil
}

// sddmmKernel is one rank's SDDMM arithmetic: each entry's sampled value
// Val * dot(X[RowLo+row], yrow), computed with sparse.Dot — the reference
// kernel's own loop, so values are bit-identical to sparse.COO.SDDMM. sync
// and async are the value slots aligned with np.Sync.Entries and
// np.Async.Entries.
type sddmmKernel struct {
	x           *dense.Matrix
	k           int
	sync, async []float64
}

func (kn *sddmmKernel) panel(np *NodePart, n int, _ accumSink, resolve rowResolver, ws *panelScratch, _ sampling) error {
	lo := np.Sync.PanelPtr[n]
	for i, e := range np.Sync.Entries[lo:np.Sync.PanelPtr[n+1]] {
		yrow, err := ws.resolved(e.Col, resolve)
		if err != nil {
			return err
		}
		kn.sync[lo+int64(i)] = e.Val * sparse.Dot(kn.x.Row(int(np.RowLo+e.Row)), yrow)
	}
	return nil
}

func (kn *sddmmKernel) stripe(np *NodePart, si int, cols, rowRef []int32, _ accumSink, ws *asyncScratch, _ sampling) {
	lo := np.Async.StripePtr[si]
	ci := 0
	for i, e := range np.Async.Entries[lo:np.Async.StripePtr[si+1]] {
		for cols[ci] != e.Col {
			ci++
		}
		kn.async[lo+int64(i)] = e.Val * sparse.Dot(kn.x.Row(int(np.RowLo+e.Row)), ws.row(rowRef[ci], kn.k))
	}
}

// appendSampled appends a rank's entries, shifted to global rows, with their
// sampled values.
func appendSampled(dst []sparse.NZ, rowLo int32, entries []sparse.NZ, vals []float64) []sparse.NZ {
	for i, e := range entries {
		dst = append(dst, sparse.NZ{Row: rowLo + e.Row, Col: e.Col, Val: vals[i]})
	}
	return dst
}
