package conformance

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"twoface"
	"twoface/internal/cluster"
	"twoface/internal/core"
	"twoface/internal/transport/tcp"
)

func memBackend() Backend {
	return Backend{
		Name: "mem",
		New: func(t *testing.T, p int) []cluster.Transport {
			tr, err := cluster.NewMemTransport(p)
			if err != nil {
				t.Fatal(err)
			}
			// One shared transport serves every rank in-process.
			return []cluster.Transport{tr}
		},
	}
}

// newTCPRing builds p TCP transports in one test process, each serving one
// rank on a 127.0.0.1 ephemeral port — the multi-process topology without
// the processes, so the suite (and -race) can see all sides at once.
func newTCPRing(t *testing.T, p int) []cluster.Transport {
	t.Helper()
	listeners := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	trs := make([]cluster.Transport, p)
	for i := range trs {
		tr, err := tcp.New(tcp.Config{
			Rank:           i,
			Addrs:          addrs,
			Listener:       listeners[i],
			Digest:         0xC0FFEE,
			DialTimeout:    5 * time.Second,
			RequestTimeout: 10 * time.Second,
			BarrierTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		t.Cleanup(func() { tr.Close() })
	}
	return trs
}

func tcpBackend() Backend {
	return Backend{Name: "tcp", New: newTCPRing}
}

func TestMemBackendConformance(t *testing.T) { Run(t, memBackend()) }
func TestTCPBackendConformance(t *testing.T) { Run(t, tcpBackend()) }

// TestCrossBackendBitIdenticalC is the ISSUE's headline acceptance check:
// the same seed and matrix, executed on the in-process simulator and on the
// TCP transport (one cluster per rank, sockets between them), must produce
// a bit-identical C. A single async worker pins the accumulation order of
// every element (its sync panel row, then the async run accumulator; several
// async workers would split stripes between them by scheduling), while the
// panel workers may run concurrently — each C row lives in one panel. Any
// byte of drift here means the transport moved wrong data.
func TestCrossBackendBitIdenticalC(t *testing.T) {
	const (
		p = 3
		k = 8
	)
	a := twoface.Generate("web", 0.02, 7)
	b := twoface.RandomDense(int(a.NumCols), k, 8)
	net := cluster.Default()
	params := core.Params{P: p, K: k, W: 8, Coef: twoface.DeriveCoefficients(net)}
	opts := core.ExecOptions{AsyncWorkers: 1, SyncWorkers: 4}

	// Reference: the simulator, all ranks in-process.
	memPrep, err := core.Preprocess(a, params)
	if err != nil {
		t.Fatal(err)
	}
	memClu, err := cluster.New(p, net)
	if err != nil {
		t.Fatal(err)
	}
	memRes, err := core.Exec(memPrep, b, memClu, opts)
	if err != nil {
		t.Fatal(err)
	}

	// TCP: one transport, one cluster, one Exec per rank, concurrently —
	// each rank preprocesses independently (as real processes would) and
	// fills only its own C row block.
	trs := newTCPRing(t, p)
	results := make([]*core.Result, p)
	preps := make([]*core.Prep, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			prep, err := core.Preprocess(a, params)
			if err != nil {
				errs[r] = err
				return
			}
			preps[r] = prep
			clu, err := cluster.NewWithTransport(trs[r], net)
			if err != nil {
				errs[r] = err
				return
			}
			results[r], errs[r] = core.Exec(prep, b, clu, opts)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if !results[r].Measured {
			t.Fatalf("rank %d: TCP-backed result should be flagged Measured", r)
		}
	}

	// Each rank's row block must match the simulator's C bit for bit.
	for r := 0; r < p; r++ {
		lo, hi := int(preps[r].Nodes[r].RowLo), int(preps[r].Nodes[r].RowHi)
		for i := lo * k; i < hi*k; i++ {
			got, want := results[r].C.Data[i], memRes.C.Data[i]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("rank %d, element %d: TCP %v (%#x) vs sim %v (%#x) — backends diverged",
					r, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
