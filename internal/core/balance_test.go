package core

import (
	"testing"
	"testing/quick"

	"twoface/internal/cluster"
	"twoface/internal/dense"
	"twoface/internal/sparse"
)

// skewedCOO concentrates most nonzeros on the first rows (a mawi-like row
// imbalance).
func skewedCOO(rows int32, seed uint64) *sparse.COO {
	m := randomCOO(rows, rows, int(rows), seed) // sparse background
	hot := m.Clone()
	for r := int32(0); r < rows/16; r++ {
		for c := int32(0); c < rows; c += 3 {
			hot.Append(r, c, 1)
		}
	}
	hot.Dedup()
	return hot
}

func TestBalancedRowBoundsInvariants(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		p := int(pRaw)%7 + 1
		rows := int32(40 + seed%200)
		a := randomCOO(rows, rows, 800, seed)
		bounds, err := BalancedRowBounds(a, p)
		if err != nil {
			return false
		}
		if len(bounds) != p+1 || bounds[0] != 0 || bounds[p] != rows {
			return false
		}
		for i := 0; i < p; i++ {
			if bounds[i+1] <= bounds[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBalancedRowBoundsErrors(t *testing.T) {
	a := randomCOO(5, 5, 10, 1)
	if _, err := BalancedRowBounds(a, 0); err == nil {
		t.Fatal("p=0 should fail")
	}
	if _, err := BalancedRowBounds(a, 6); err == nil {
		t.Fatal("p > rows should fail")
	}
}

func TestBalancedBoundsReduceImbalance(t *testing.T) {
	a := skewedCOO(512, 3)
	const p = 8
	equal := make([]int32, p+1)
	for i := 0; i <= p; i++ {
		equal[i] = int32(i) * a.NumRows / p
	}
	balanced, err := BalancedRowBounds(a, p)
	if err != nil {
		t.Fatal(err)
	}
	ib0 := Imbalance(a, equal)
	ib1 := Imbalance(a, balanced)
	if ib1 >= ib0 {
		t.Fatalf("balancing did not help: %.2f -> %.2f", ib0, ib1)
	}
	if ib1 > 1.3 {
		t.Fatalf("balanced imbalance still %.2f", ib1)
	}
}

func TestImbalanceEdgeCases(t *testing.T) {
	a := sparse.NewCOO(4, 4, 0)
	if Imbalance(a, []int32{0, 4}) != 1 {
		t.Fatal("empty matrix imbalance should be 1")
	}
}

func TestWithRowBoundsValidation(t *testing.T) {
	l, err := NewLayout(100, 100, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]int32{
		{0, 25, 50, 100},     // wrong length
		{1, 25, 50, 75, 100}, // doesn't start at 0
		{0, 25, 50, 75, 99},  // doesn't end at NumRows
		{0, 50, 50, 75, 100}, // not strictly increasing
	}
	for i, b := range bad {
		if _, err := l.WithRowBounds(b); err == nil {
			t.Fatalf("case %d should fail: %v", i, b)
		}
	}
	good, err := l.WithRowBounds([]int32{0, 10, 20, 90, 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := good.RowBlock(2); got.Lo != 20 || got.Hi != 90 {
		t.Fatalf("RowBlock(2) = %+v", got)
	}
	for r := int32(0); r < 100; r++ {
		owner := good.RowOwner(r)
		if !good.RowBlock(owner).Contains(int(r)) {
			t.Fatalf("RowOwner(%d) = %d does not contain the row", r, owner)
		}
	}
	// The original layout is unchanged.
	if l.RowBlock(0).Hi != 25 {
		t.Fatal("WithRowBounds must not mutate the receiver")
	}
}

func TestBalancedExecCorrect(t *testing.T) {
	a := skewedCOO(256, 7)
	b := dense.Random(256, 8, 8)
	want, _ := a.ToCSR().Mul(b)
	params := basicParams(4, 8, 8)
	params.BalanceRows = true
	prep, err := Preprocess(a, params)
	if err != nil {
		t.Fatal(err)
	}
	clu, _ := cluster.New(4, cluster.Default())
	res, err := Exec(prep, b, clu, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.C.AlmostEqual(want, 1e-9) {
		t.Fatal("balanced-partition result wrong")
	}
	// The row blocks must actually differ from equal blocks on this skew.
	equalBlock := int(a.NumRows) / 4
	diff := false
	for i := range prep.Nodes {
		if int(prep.Nodes[i].RowHi-prep.Nodes[i].RowLo) != equalBlock {
			diff = true
		}
	}
	if !diff {
		t.Fatal("BalanceRows had no effect on a skewed matrix")
	}
}

func TestBalancedSDDMMCorrect(t *testing.T) {
	a := skewedCOO(128, 9)
	x := dense.Random(128, 4, 1)
	y := dense.Random(128, 4, 2)
	params := basicParams(4, 4, 8)
	params.BalanceRows = true
	prep, err := Preprocess(a, params)
	if err != nil {
		t.Fatal(err)
	}
	clu, _ := cluster.New(4, cluster.Default())
	res, err := ExecSDDMM(prep, x, y, clu, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := a.SDDMM(x, y)
	sddmmEqual(t, res.C, want)
}

func TestBalancedImprovesSkewedMakespan(t *testing.T) {
	// On a row-skewed matrix, balanced partitioning should not be slower in
	// modeled time (usually faster: the hot node shrinks).
	a := skewedCOO(512, 11)
	b := dense.Random(512, 16, 12)
	run := func(balance bool) float64 {
		params := basicParams(8, 16, 8)
		params.BalanceRows = balance
		prep, err := Preprocess(a, params)
		if err != nil {
			t.Fatal(err)
		}
		clu, _ := cluster.New(8, cluster.Default())
		res, err := Exec(prep, b, clu, ExecOptions{SkipCompute: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.ModeledSeconds
	}
	equal, balanced := run(false), run(true)
	if balanced > equal*1.05 {
		t.Fatalf("balancing slowed a skewed matrix: %v -> %v", equal, balanced)
	}
}
