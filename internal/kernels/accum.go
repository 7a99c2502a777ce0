package kernels

// RowAccumulator gathers scaled dense rows into a compact per-row buffer so
// that a stream of (row, alpha, x) updates in arbitrary row order — the
// column-major nonzero order of an asynchronous stripe — turns into exactly
// one flush per distinct output row. The executor uses one per stripe,
// flushed into a second, run-level one per async worker, which it adds into
// the rank's row block of C once the run's work has joined — plain float
// adds throughout, since each rank alone writes its rows.
//
// Row indices are dense small integers (node-local row offsets). First
// touches are detected with an epoch stamp per row index, so Begin is O(1):
// no per-call clearing of the stamp or accumulator arrays. A RowAccumulator
// is reusable across stripes and sized lazily; the zero value is ready to
// use. It is not safe for concurrent use — give each worker its own
// (typically from a sync.Pool).
type RowAccumulator struct {
	k     int       // dense row width of the current epoch
	acc   []float64 // slot-major accumulation buffer, len >= len(rows)*k
	rows  []int32   // touched rows in first-touch order
	slot  []int32   // row -> slot index, valid iff stamp[row] == epoch
	stamp []uint32  // row -> epoch of last touch
	epoch uint32
}

// Begin starts accumulation for a new stripe over row indices [0, numRows)
// with dense width k. It retains and reuses all prior capacity.
func (a *RowAccumulator) Begin(numRows, k int) {
	a.k = k
	if len(a.stamp) < numRows {
		a.slot = make([]int32, numRows)
		a.stamp = make([]uint32, numRows)
	}
	a.epoch++
	if a.epoch == 0 { // uint32 wraparound: stale stamps could collide
		clear(a.stamp)
		a.epoch = 1
	}
	a.rows = a.rows[:0]
}

// Accumulate adds alpha * x into the accumulator row `row`. The first touch
// of a row assigns it the next free slot and scale-assigns (no zero fill);
// later touches accumulate with Axpy.
func (a *RowAccumulator) Accumulate(row int32, alpha float64, x []float64) {
	vals, first := a.Row(row)
	if first {
		ScaleTo(vals, alpha, x)
		return
	}
	Axpy(alpha, x, vals)
}

// Row returns the width-k accumulation buffer of `row`, assigning it the
// next free slot on a first touch. When first is true the buffer holds stale
// data from an earlier epoch: the caller must assign into it (ScaleTo), not
// accumulate. Buffers alias internal storage and are invalidated when a
// later first touch grows it — callers holding several buffers across touches
// (the tiled AxpyQuad path) must Reserve the batch's rows up front.
func (a *RowAccumulator) Row(row int32) (vals []float64, first bool) {
	if a.stamp[row] != a.epoch {
		a.stamp[row] = a.epoch
		a.slot[row] = int32(len(a.rows))
		a.rows = append(a.rows, row)
		if need := len(a.rows) * a.k; need > len(a.acc) {
			grown := make([]float64, max(need, 2*len(a.acc)))
			copy(grown, a.acc)
			a.acc = grown
		}
		off := (len(a.rows) - 1) * a.k
		return a.acc[off : off+a.k], true
	}
	off := int(a.slot[row]) * a.k
	return a.acc[off : off+a.k], false
}

// Reserve grows the accumulation buffer to hold up to n further first
// touches, so Row buffers handed out during the next n touches stay valid.
func (a *RowAccumulator) Reserve(n int) {
	if need := (len(a.rows) + n) * a.k; need > len(a.acc) {
		grown := make([]float64, max(need, 2*len(a.acc)))
		copy(grown, a.acc)
		a.acc = grown
	}
}

// Touched returns the rows accumulated since Begin, in first-touch order.
// The slice aliases internal storage and is invalidated by the next Begin.
func (a *RowAccumulator) Touched() []int32 { return a.rows }

// Vals returns the accumulated width-k vector of the i-th touched row
// (aligned with Touched). It aliases internal storage.
func (a *RowAccumulator) Vals(i int) []float64 { return a.acc[i*a.k : (i+1)*a.k] }
