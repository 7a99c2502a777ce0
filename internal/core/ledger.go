package core

import (
	"sync"

	"twoface/internal/cluster"
)

// charger receives a work unit's virtual-time charges: the rank itself on
// the serialized doomed and recovery paths, a chargeBuf on the live path's
// concurrent workers.
type charger interface {
	ChargeOp(cat cluster.Category, op string, dt float64)
}

type charge struct {
	cat cluster.Category
	op  string
	dt  float64
}

// chargeBuf collects one work unit's charges on its worker until the unit
// is deposited with an orderedLedger.
type chargeBuf []charge

func (b *chargeBuf) ChargeOp(cat cluster.Category, op string, dt float64) {
	*b = append(*b, charge{cat, op, dt})
}

// orderedLedger commits the charges of one rank's concurrently executed
// work units — its row panels, or its async batches — to the rank's ledger
// in unit order, whatever order the workers finish them in. A category
// total is a float sum, which depends on the order of its additions, so
// committing in a fixed order makes every total, and the modeled makespan,
// the same from run to run and equal to a single worker's. A worker that
// finishes a unit deposits its charges and moves on; whoever deposits the
// lowest pending unit commits it and every ready unit after it.
type orderedLedger struct {
	r       *cluster.Rank
	mu      sync.Mutex
	next    int
	held    [][]charge // units deposited ahead of next, awaiting commit
	ready   []bool
	applied []float64 // per unit: seconds the ledger advanced, set at commit
}

func newOrderedLedger(r *cluster.Rank, units int) *orderedLedger {
	return &orderedLedger{r: r, held: make([][]charge, units), ready: make([]bool, units), applied: make([]float64, units)}
}

// deposit hands in unit n's charges. cs may be reused once deposit returns.
func (l *orderedLedger) deposit(n int, cs []charge) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n != l.next {
		l.held[n] = append([]charge(nil), cs...)
		l.ready[n] = true
		return
	}
	l.commit(n, cs)
	for l.next < len(l.ready) && l.ready[l.next] {
		n := l.next
		l.commit(n, l.held[n])
		l.held[n] = nil
	}
}

func (l *orderedLedger) commit(n int, cs []charge) {
	for _, c := range cs {
		l.applied[n] += l.r.ChargeOpTimed(c.cat, c.op, c.dt)
	}
	l.next = n + 1
}
