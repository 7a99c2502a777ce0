package main

import "testing"

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 20, 35, 99, 100, 101, 1000, 1234} {
		q, err := tailPercentile(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		d := make([]float64, n)
		for i := range d {
			d[i] = float64(i)
		}
		v := newDist(d).at(q)
		beyond := n - 1 - int(v)
		if beyond < tailBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond, want >= %d", n, q, beyond, tailBeyond)
		}
		// The next whole percentile up must leave fewer than ten: the
		// chosen one is the highest that qualifies.
		if q < 100 {
			if next := n - 1 - int(newDist(d).at(q+1)); next >= tailBeyond {
				t.Errorf("n=%d: p%g also leaves %d beyond; p%g is not the highest", n, q+1, next, q)
			}
		}
	}
	if q, _ := tailPercentile(1000); q != 99 {
		t.Errorf("n=1000: tail at p%g, want p99", q)
	}
	if _, err := tailPercentile(10); err == nil {
		t.Error("n=10 has no tail with ten samples beyond it; want an error")
	}
}

func TestMedianNearestRank(t *testing.T) {
	d := newDist([]float64{5, 1, 4, 2, 3})
	if m := d.median(); m != 3 {
		t.Errorf("median %v, want 3", m)
	}
	if d[0] != 1 || d[4] != 5 {
		t.Errorf("newDist did not sort: %v", d)
	}
}

func TestBlockTailIgnoresOneBadBlock(t *testing.T) {
	// Three blocks of steady 1 ms samples, one of which holds a burst of
	// 50 ms stalls: the whole-run tail lands on the burst, the block
	// median does not.
	var xs []float64
	for b := 0; b < 3; b++ {
		for i := 0; i < tailBlock; i++ {
			v := 1.0
			if b == 1 && i < 30 {
				v = 50
			}
			xs = append(xs, v)
		}
	}
	whole, _, _ := newDist(xs).tail()
	v, q, nb, err := blockTail(xs)
	if err != nil {
		t.Fatal(err)
	}
	if nb != 3 || v != 1 || whole != 50 {
		t.Errorf("blockTail = %v over %d blocks (whole-run tail %v); want 1 over 3 blocks, whole 50", v, nb, whole)
	}
	if want, _ := tailPercentile(tailBlock); q != want {
		t.Errorf("block percentile p%g, want p%g", q, want)
	}
	if _, _, _, err := blockTail(xs[:10]); err == nil {
		t.Error("10 samples have no tail; want an error")
	}
}
