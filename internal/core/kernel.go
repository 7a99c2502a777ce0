package core

import "twoface/internal/kernels"

// kernel is the per-unit arithmetic of one run. The executor owns every
// transfer, schedule, and ledger charge and hands the kernel one work unit at
// a time with the unit's dense rows already moved: one call per sync row
// panel and one per async stripe, never one per nonzero. spmmKernel
// accumulates C = A x B through an accumSink; sddmmKernel (sddmm.go) writes
// A_ij * dot(X[i,:], Y[j,:]) into per-entry value slots and ignores the sink.
type kernel interface {
	// panel computes sync row panel n of np. Columns resolve through
	// ws.resolved, which ws.begin has opened for this panel.
	panel(np *NodePart, n int, out accumSink, resolve rowResolver, ws *panelScratch, smp sampling) error
	// stripe computes async stripe si of np from the batch gathered in ws:
	// cols are the stripe's distinct columns, ascending, and rowRef their
	// row references (see asyncScratch.row).
	stripe(np *NodePart, si int, cols, rowRef []int32, out accumSink, ws *asyncScratch, smp sampling)
}

// spmmKernel is Two-Face's SpMM arithmetic over dense rows of width k.
type spmmKernel struct{ k int }

// panel is Algorithm 2: multiply one row panel with a thread-local
// accumulation buffer, flushing to out once per output row. Each of the
// panel's distinct columns is resolved to its dense B row once, into the
// workspace's flat slice table; the per-nonzero loop is then a table lookup
// plus a shared AXPY kernel, with no closure calls.
func (spmmKernel) panel(np *NodePart, n int, out accumSink, resolve rowResolver, ws *panelScratch, smp sampling) error {
	panel := np.Sync.Entries[np.Sync.PanelPtr[n]:np.Sync.PanelPtr[n+1]]
	acc := ws.acc
	clear(acc)
	prevRow := panel[0].Row
	// Consecutive nonzeros of a row pair up through the dual-source tiled
	// kernel, keeping the accumulator tile in registers across both
	// multiply-adds; an unpaired leftover (odd count, or a gap forced by
	// sampling) flushes through plain Axpy. Axpy2 rounds exactly like the
	// two sequential Axpys it replaces, so the panel result is unchanged.
	var pendVal float64
	var pendRow []float64
	for _, e := range panel {
		if e.Row != prevRow {
			if pendRow != nil {
				kernels.Axpy(pendVal, pendRow, acc)
				pendRow = nil
			}
			out.addRow(prevRow, acc)
			clear(acc)
			prevRow = e.Row
		}
		if smp.masked(np.RowLo+e.Row, e.Col) {
			continue
		}
		brow, err := ws.resolved(e.Col, resolve)
		if err != nil {
			return err
		}
		if pendRow == nil {
			pendVal, pendRow = e.Val, brow
			continue
		}
		kernels.Axpy2(pendVal, pendRow, e.Val, brow, acc)
		pendRow = nil
	}
	if pendRow != nil {
		kernels.Axpy(pendVal, pendRow, acc)
	}
	out.addRow(prevRow, acc)
	return nil
}

// stripe accumulates one async stripe's nonzeros into a stripe-local dense
// buffer, one same-column run at a time, and flushes it into out once per
// touched row.
func (kn spmmKernel) stripe(np *NodePart, si int, cols, rowRef []int32, out accumSink, ws *asyncScratch, smp sampling) {
	entries := np.Async.Entries[np.Async.StripePtr[si]:np.Async.StripePtr[si+1]]
	acc := &ws.acc
	acc.Begin(int(np.RowHi-np.RowLo), kn.k)
	ci := 0
	for i := 0; i < len(entries); {
		col := entries[i].Col
		j := i + 1
		for j < len(entries) && entries[j].Col == col {
			j++
		}
		for cols[ci] != col {
			ci++
		}
		accumulateRun(acc, entries[i:j], ws.row(rowRef[ci], kn.k), np.RowLo, smp)
		i = j
	}
	for i, row := range acc.Touched() {
		out.addRow(row, acc.Vals(i))
	}
}
