package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"twoface/internal/chaos"
	"twoface/internal/cluster"
	"twoface/internal/dense"
	"twoface/internal/gen"
	"twoface/internal/sparse"
)

func sddmmFixture(t *testing.T, rows int32, nnz, k, p int, seed uint64) (*sparse.COO, *dense.Matrix, *dense.Matrix, *Prep, *cluster.Cluster) {
	t.Helper()
	a := randomCOO(rows, rows, nnz, seed)
	x := dense.Random(int(rows), k, seed+1)
	y := dense.Random(int(rows), k, seed+2)
	prep, err := Preprocess(a, basicParams(p, k, 8))
	if err != nil {
		t.Fatal(err)
	}
	clu, err := cluster.New(p, cluster.Default())
	if err != nil {
		t.Fatal(err)
	}
	return a, x, y, prep, clu
}

// sddmmEqual requires got to be want, sorted row-major, bit for bit: the
// distributed kernel computes each entry with the reference's own dot loop.
func sddmmEqual(t *testing.T, got, want *sparse.COO) {
	t.Helper()
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("SDDMM entry counts: %d vs %d", len(got.Entries), len(want.Entries))
	}
	want.SortRowMajor()
	for i := range want.Entries {
		g, w := got.Entries[i], want.Entries[i]
		if g.Row != w.Row || g.Col != w.Col {
			t.Fatalf("entry %d coordinates (%d,%d) vs (%d,%d)", i, g.Row, g.Col, w.Row, w.Col)
		}
		if math.Float64bits(g.Val) != math.Float64bits(w.Val) {
			t.Fatalf("entry %d value %v vs %v", i, g.Val, w.Val)
		}
	}
}

func TestSDDMMMatchesReference(t *testing.T) {
	a, x, y, prep, clu := sddmmFixture(t, 120, 1500, 8, 4, 1)
	res, err := ExecSDDMM(prep, x, y, clu, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.SDDMM(x, y)
	if err != nil {
		t.Fatal(err)
	}
	sddmmEqual(t, res.C, want)
	if res.ModeledSeconds <= 0 {
		t.Fatal("no modeled time")
	}
}

func TestSDDMMProperty(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		p := int(pRaw)%5 + 1
		rows := int32(50 + seed%50)
		a := randomCOO(rows, rows, 500, seed)
		x := dense.Random(int(rows), 4, seed+1)
		y := dense.Random(int(rows), 4, seed+2)
		prep, err := Preprocess(a, basicParams(p, 4, 4))
		if err != nil {
			return false
		}
		clu, err := cluster.New(p, cluster.Default())
		if err != nil {
			return false
		}
		res, err := ExecSDDMM(prep, x, y, clu, ExecOptions{})
		if err != nil {
			return false
		}
		want, err := a.SDDMM(x, y)
		if err != nil {
			return false
		}
		want.SortRowMajor()
		if len(res.C.Entries) != len(want.Entries) {
			return false
		}
		for i := range want.Entries {
			g, w := res.C.Entries[i], want.Entries[i]
			if g.Row != w.Row || g.Col != w.Col {
				return false
			}
			if math.Float64bits(g.Val) != math.Float64bits(w.Val) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSDDMMValidation(t *testing.T) {
	_, x, y, prep, clu := sddmmFixture(t, 60, 400, 4, 2, 3)
	if _, err := ExecSDDMM(prep, dense.New(60, 3), y, clu, ExecOptions{}); err == nil {
		t.Fatal("wrong X shape should fail")
	}
	if _, err := ExecSDDMM(prep, x, dense.New(59, 4), clu, ExecOptions{}); err == nil {
		t.Fatal("wrong Y shape should fail")
	}
	wrongClu, _ := cluster.New(3, cluster.Default())
	if _, err := ExecSDDMM(prep, x, y, wrongClu, ExecOptions{}); err == nil {
		t.Fatal("wrong cluster size should fail")
	}
}

func TestSDDMMSkipCompute(t *testing.T) {
	_, x, y, prep, clu := sddmmFixture(t, 80, 600, 4, 4, 5)
	res, err := ExecSDDMM(prep, x, y, clu, ExecOptions{SkipCompute: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.C.Entries) != 0 {
		t.Fatal("timing-only SDDMM should not emit entries")
	}
	if res.ModeledSeconds <= 0 {
		t.Fatal("timing-only SDDMM should still model time")
	}
}

func TestSDDMMReusesSpMMPlan(t *testing.T) {
	// The same Prep must serve both kernels.
	a, x, y, prep, clu := sddmmFixture(t, 100, 1200, 8, 4, 7)
	spmm, err := Exec(prep, y, clu, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantSpMM, _ := a.ToCSR().Mul(y)
	if !spmm.C.AlmostEqual(wantSpMM, 1e-9) {
		t.Fatal("SpMM on shared prep wrong")
	}
	sd, err := ExecSDDMM(prep, x, y, clu, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantSD, _ := a.SDDMM(x, y)
	sddmmEqual(t, sd.C, wantSD)
}

func TestSDDMMSequentialReferenceShapes(t *testing.T) {
	a := randomCOO(10, 20, 30, 9)
	x := dense.Random(10, 4, 1)
	y := dense.Random(20, 4, 2)
	out, err := a.SDDMM(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if out.NNZ() != a.NNZ() {
		t.Fatal("SDDMM must preserve sparsity structure")
	}
	if _, err := a.SDDMM(dense.New(9, 4), y); err == nil {
		t.Fatal("bad X rows should fail")
	}
	if _, err := a.SDDMM(x, dense.New(20, 5)); err == nil {
		t.Fatal("K mismatch should fail")
	}
}

// webSDDMM builds the web matrix at scale with matching X and Y (Y doubles
// as SpMM's B) and returns a constructor for fresh plans over it.
func webSDDMM(t *testing.T, scale float64, p, k int) (a *sparse.COO, x, y *dense.Matrix, plan func() *Prep) {
	t.Helper()
	spec, err := gen.ByName("web")
	if err != nil {
		t.Fatal(err)
	}
	a = spec.Build(scale, 1)
	x = dense.Random(int(a.NumRows), k, 2)
	y = dense.Random(int(a.NumCols), k, 3)
	plan = func() *Prep {
		prep, err := Preprocess(a, Params{P: p, K: k, W: spec.ScaledWidth(scale)})
		if err != nil {
			t.Fatal(err)
		}
		return prep
	}
	return a, x, y, plan
}

func newTestCluster(t *testing.T, p int, plan *chaos.Plan) *cluster.Cluster {
	t.Helper()
	clu, err := cluster.New(p, cluster.Default())
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		inj, err := plan.Injector(p)
		if err != nil {
			t.Fatal(err)
		}
		clu.SetFaultInjector(inj)
	}
	return clu
}

// Every one-sided get exhausts its retry budget, so every async batch
// degrades to the reliable re-fetch. SDDMM shares the executor's degrade
// path with SpMM, so the run completes with the fault-free values.
func TestSDDMMSurvivesExhaustedGets(t *testing.T) {
	const p, k = 4, 8
	a, x, y, plan := webSDDMM(t, 0.01, p, k)
	healthy, err := ExecSDDMM(plan(), x, y, newTestCluster(t, p, nil), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	faults := &chaos.Plan{Seed: 1, Gets: []chaos.GetFault{{Origin: -1, Target: -1, Prob: 1, Fails: 10}}}
	clu := newTestCluster(t, p, faults)
	res, err := ExecSDDMM(plan(), x, y, clu, ExecOptions{})
	if err != nil {
		t.Fatalf("survivable plan aborted SDDMM: %v", err)
	}
	if clu.TotalResilience().Degradations == 0 {
		t.Fatal("no get degraded: the plan did not exercise the fallback")
	}
	sddmmEqual(t, res.C, healthy.C)
	want, err := a.SDDMM(x, y)
	if err != nil {
		t.Fatal(err)
	}
	sddmmEqual(t, res.C, want)
}

// SDDMM is fail-clean: a crash aborts it whether or not the cluster is in
// fail-recover mode (DESIGN.md section 12).
func TestSDDMMCrashFailsClean(t *testing.T) {
	const p, k = 4, 8
	_, x, y, plan := webSDDMM(t, 0.05, p, k)
	for _, rec := range []bool{false, true} {
		clu := newTestCluster(t, p, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Rank: 2, At: 1e-6}}})
		clu.SetRecovery(rec)
		_, err := ExecSDDMM(plan(), x, y, clu, ExecOptions{})
		if !errors.Is(err, cluster.ErrCrashed) {
			t.Fatalf("recover=%v: err = %v, want ErrCrashed", rec, err)
		}
	}
}

// A cold SDDMM moves Y exactly as a cold Multiply moves B: same requests,
// regions, bytes, and collective elements, and the same ledgers charged in
// the same unit order, overlap credit included.
func TestSDDMMLedgersMatchMultiply(t *testing.T) {
	for _, c := range []struct {
		scale float64
		p, k  int
	}{{0.01, 4, 8}, {0.05, 8, 32}} {
		t.Run(fmt.Sprintf("web@%v/p%d/K%d", c.scale, c.p, c.k), func(t *testing.T) {
			_, x, y, plan := webSDDMM(t, c.scale, c.p, c.k)
			mm, err := Exec(plan(), y, newTestCluster(t, c.p, nil), ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sd, err := ExecSDDMM(plan(), x, y, newTestCluster(t, c.p, nil), ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if mm.TotalTransfer.OneSidedGets == 0 || mm.TotalTransfer.CollectiveBytes == 0 {
				t.Fatalf("plan exercises only one half: %+v", mm.TotalTransfer)
			}
			if got, want := fmt.Sprintf("%#v", sd.TotalTransfer), fmt.Sprintf("%#v", mm.TotalTransfer); got != want {
				t.Errorf("transfer:\n sddmm    %s\n multiply %s", got, want)
			}
			for i := range mm.Breakdowns {
				if got, want := fmt.Sprintf("%#v", sd.Breakdowns[i]), fmt.Sprintf("%#v", mm.Breakdowns[i]); got != want {
					t.Errorf("rank %d ledger:\n sddmm    %s\n multiply %s", i, got, want)
				}
			}
		})
	}
}

// SpMM+SDDMM pipelines share the row cache: an SDDMM whose Y is the B of
// the Multiply before it on the same plan is served the rows that Multiply
// fetched.
func TestSDDMMReusesMultiplyRowCache(t *testing.T) {
	const p, k = 4, 8
	a, x, y, plan := webSDDMM(t, 0.05, p, k)
	cold, err := ExecSDDMM(plan(), x, y, newTestCluster(t, p, nil), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prep, clu := plan(), newTestCluster(t, p, nil)
	if _, err := Exec(prep, y, clu, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	warm, err := ExecSDDMM(prep, x, y, clu, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.TotalTransfer.OneSidedBytes == 0 {
		t.Fatal("plan moves nothing one-sidedly")
	}
	if warm.TotalTransfer.OneSidedBytes >= cold.TotalTransfer.OneSidedBytes {
		t.Fatalf("warm SDDMM moved %d one-sided bytes, cold %d", warm.TotalTransfer.OneSidedBytes, cold.TotalTransfer.OneSidedBytes)
	}
	want, err := a.SDDMM(x, y)
	if err != nil {
		t.Fatal(err)
	}
	sddmmEqual(t, warm.C, want)
}
