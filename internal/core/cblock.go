package core

import (
	"twoface/internal/dense"
	"twoface/internal/kernels"
)

// accumSink receives a work unit's output-row contributions, one dense
// width-K row at a time, with rows indexed relative to the unit's node
// (0 is NodePart.RowLo). Sync panels in the live executor add straight into
// the rank's rowBlock; async workers flush into their run-level
// accumulator (runSink); the doomed and recovery paths interpose a
// stagedSink so a unit's output becomes visible only at a checkpoint or in
// global unit order.
type accumSink interface {
	addRow(row int32, vals []float64)
}

// rowBlock is one rank's row block of C, rows [RowLo, RowHi). Only the
// owning rank writes it — or, once that rank has died, the survivors
// re-executing its units one at a time — so plain adds suffice.
type rowBlock struct {
	data []float64
	k    int
}

// nodeBlock returns np's row block of c.
func nodeBlock(c *dense.Matrix, np *NodePart) *rowBlock {
	return &rowBlock{data: c.RowRange(int(np.RowLo), int(np.RowHi)), k: c.Cols}
}

func (blk *rowBlock) addRow(row int32, vals []float64) {
	off := int(row) * blk.k
	kernels.Add(blk.data[off:off+blk.k], vals)
}

// merge adds an async worker's run accumulator into the block, row by row
// in the accumulator's first-touch order (each row is touched once, so the
// order across rows does not affect the result).
func (blk *rowBlock) merge(acc *kernels.RowAccumulator) {
	for i, row := range acc.Touched() {
		blk.addRow(row, acc.Vals(i))
	}
}

// runSink is an async worker's run-level accumulator seen as an accumSink:
// the first flush of a row assigns it, later flushes add to it (Accumulate
// with alpha 1 rounds exactly like a plain add).
type runSink kernels.RowAccumulator

func (s *runSink) addRow(row int32, vals []float64) {
	(*kernels.RowAccumulator)(s).Accumulate(row, 1, vals)
}
