package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"twoface/internal/cluster"
)

// Eight workers deposit units in whatever order they finish them; the
// ledger must come out bit-identical to committing the units one by one in
// unit order, and each unit's applied seconds must be its own charges.
func TestOrderedLedgerDeterministicOrder(t *testing.T) {
	const units, workers = 200, 8
	syncCost := func(n int) float64 { return 1 / float64(n+3) }
	asyncCost := func(n int) float64 { return 1e-3 / float64(2*n+7) }
	for round := 0; round < 5; round++ {
		clu, err := cluster.New(1, cluster.Default())
		if err != nil {
			t.Fatal(err)
		}
		var led *orderedLedger
		err = clu.Run(func(r *cluster.Rank) error {
			led = newOrderedLedger(r, units)
			var cursor atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var charges chargeBuf
					for {
						n := int(cursor.Add(1) - 1)
						if n >= units {
							return
						}
						charges = charges[:0]
						charges.ChargeOp(cluster.SyncComp, "unit", syncCost(n))
						if n%3 != 0 { // some units charge one category only
							charges.ChargeOp(cluster.AsyncComp, "unit", asyncCost(n))
						}
						led.deposit(n, charges)
					}
				}()
			}
			wg.Wait()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got := clu.Breakdowns()[0]
		var want cluster.Breakdown
		for n := 0; n < units; n++ {
			want.SyncComp += syncCost(n)
			if n%3 != 0 {
				want.AsyncComp += asyncCost(n)
			}
			applied := syncCost(n)
			if n%3 != 0 {
				applied += asyncCost(n)
			}
			if led.applied[n] != applied {
				t.Fatalf("round %d unit %d: applied %v, want %v", round, n, led.applied[n], applied)
			}
		}
		if got != want {
			t.Fatalf("round %d: ledger %+v, want unit-order sums %+v", round, got, want)
		}
	}
}
