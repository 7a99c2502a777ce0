package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"twoface"
	"twoface/internal/transport/tcp"
)

// multiplyWorkload is a closed loop with one caller: it loads A from a file,
// preprocesses it, and calls Plan.Multiply with a fresh B from a pool each
// time, so the executor's row cache never sees the previous call's B.
type multiplyWorkload struct {
	name   string
	matrix string
	scale  float64
	p, k   int
	text   bool // A as Matrix Market text (else the binary format)
	ranks  int  // 1: the in-process simulator; p: one TCP transport per rank
	slo    time.Duration
	pool   int // pre-generated B operands, each with its reference C
	setups int // setups per run; setup_s is their median
}

var (
	trainTwitter = multiplyWorkload{name: "train-twitter", matrix: "twitter", scale: 0.5, p: 8, k: 128,
		text: true, ranks: 1, slo: time.Second, pool: 3, setups: 5}
	tcpKmer = multiplyWorkload{name: "tcp-kmer", matrix: "kmer", scale: 0.2, p: 2, k: 64,
		ranks: 2, slo: time.Second, pool: 4, setups: 9}
)

func runTrainTwitter(cfg config) (*outcome, error) { return trainTwitter.run(cfg) }
func runTCPKmer(cfg config) (*outcome, error)      { return tcpKmer.run(cfg) }

// minCalls keeps enough samples in a phase for a tail with ten beyond it.
const minCalls = 2*tailBeyond + 1

// warmUp is run, verified and not timed before measuring, so the heap,
// pools and page cache reach their steady state first.
const warmUp = time.Second

// ranks is a ready cluster: one simulator plan, or one plan per TCP rank
// with the transports it owns.
type ranks struct {
	plans []*twoface.Plan
	trs   []*tcp.Transport
}

func (r *ranks) close() {
	for _, t := range r.trs {
		t.Close()
	}
}

// multiply runs one distributed multiply on every rank at once and returns
// each rank's result and return time.
func (r *ranks) multiply(b *twoface.DenseMatrix) ([]*twoface.Result, []time.Time, error) {
	n := len(r.plans)
	res := make([]*twoface.Result, n)
	done := make([]time.Time, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = r.plans[i].Multiply(b)
			done[i] = time.Now()
		}(i)
	}
	res[0], errs[0] = r.plans[0].Multiply(b)
	done[0] = time.Now()
	wg.Wait()
	return res, done, errors.Join(errs...)
}

// verify compares every rank's own C row block with the reference, at the
// tolerance twoface-run uses.
func (r *ranks) verify(res []*twoface.Result, want *twoface.DenseMatrix) bool {
	for i, plan := range r.plans {
		lo, hi := 0, plan.NumRows()
		if len(r.plans) > 1 {
			lo, hi = plan.RowBlocks()[i][0], plan.RowBlocks()[i][1]
		}
		k := want.Cols
		got := &twoface.DenseMatrix{Rows: hi - lo, Cols: k, Data: res[i].C.Data[lo*k : hi*k]}
		ref := &twoface.DenseMatrix{Rows: hi - lo, Cols: k, Data: want.Data[lo*k : hi*k]}
		if res[i].C.Rows != want.Rows || res[i].C.Cols != k || !got.AlmostEqual(ref, 1e-9) {
			return false
		}
	}
	return true
}

// setupTimes are one setup's phases, as the caller saw them.
type setupTimes struct {
	total, read, prep, connect time.Duration
}

// setupLog is every setup of a run, in order.
type setupLog []setupTimes

// median returns the median of one phase, in seconds.
func (l setupLog) median(phase func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(l))
	for i, st := range l {
		xs[i] = phase(st).Seconds()
	}
	return newDist(xs).median()
}

func (l setupLog) last() setupTimes { return l[len(l)-1] }

// setupRepeatedly sets up n times, releasing each result but the last, and
// returns the last with the live heap it holds: the heap after a full
// collection once it is ready, minus the heap just before its setup.
func setupRepeatedly[T any](n int, log *setupLog, setup func() (T, setupTimes, error), release func(T)) (T, float64, error) {
	var cur, zero T
	var held float64
	for i := 0; i < n; i++ {
		if i > 0 {
			release(cur)
			cur = zero
		}
		h0 := liveHeap()
		c, st, err := setup()
		if err != nil {
			return zero, 0, err
		}
		cur = c
		held = float64(liveHeap()) - float64(h0)
		*log = append(*log, st)
	}
	return cur, held, nil
}

// setup reads A on every rank, connects the transports and preprocesses, in
// that order, each phase on all ranks at once.
func (w multiplyWorkload) setup(path string, tr *tracer, parent int) (*ranks, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	as := make([]*twoface.SparseMatrix, w.ranks)
	if err := onEveryRank(w.ranks, func(i int) (err error) {
		if w.text {
			as[i], err = twoface.ReadMatrixMarketFile(path)
		} else {
			as[i], err = twoface.ReadBinaryFile(path)
		}
		return err
	}); err != nil {
		return nil, st, err
	}
	t := time.Now()
	st.read = t.Sub(start)
	tr.add(parent, 0, "read", layerSparse, start, t)

	rs := &ranks{plans: make([]*twoface.Plan, w.ranks)}
	if w.ranks > 1 {
		c0 := time.Now()
		trs, err := connect(w.ranks, uint64(as[0].NNZ()))
		if err != nil {
			return nil, st, err
		}
		rs.trs = trs
		t = time.Now()
		st.connect = t.Sub(c0)
		tr.add(parent, 0, "connect", layerTCP, c0, t)
	}
	p0 := time.Now()
	err := onEveryRank(w.ranks, func(i int) error {
		opts := twoface.Options{Nodes: w.p, DenseColumns: w.k}
		if rs.trs != nil {
			opts.Transport = rs.trs[i]
		}
		sys, err := twoface.New(opts)
		if err != nil {
			return err
		}
		rs.plans[i], err = sys.Preprocess(as[i])
		return err
	})
	if err != nil {
		rs.close()
		return nil, st, err
	}
	t = time.Now()
	st.prep = t.Sub(p0)
	tr.add(parent, 0, "prep", layerPrep, p0, t)
	st.total = t.Sub(start)
	return rs, st, nil
}

// onEveryRank runs f for ranks 0..n-1 concurrently and joins their errors.
func onEveryRank(n int, f func(int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// connect brings up one TCP transport per rank on 127.0.0.1 and completes
// a barrier across them, which dials and handshakes every non-zero rank
// with the coordinator.
func connect(p int, digest uint64) ([]*tcp.Transport, error) {
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := range lns {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = l, l.Addr().String()
	}
	trs := make([]*tcp.Transport, 0, p)
	closeAll := func() {
		for _, t := range trs {
			t.Close()
		}
		for _, l := range lns[len(trs):] {
			l.Close()
		}
	}
	for i := range lns {
		t, err := tcp.New(tcp.Config{Rank: i, Addrs: addrs, Listener: lns[i], Digest: digest,
			DialTimeout: 5 * time.Second, RequestTimeout: 30 * time.Second, BarrierTimeout: 30 * time.Second})
		if err != nil {
			closeAll()
			return nil, err
		}
		trs = append(trs, t)
	}
	if err := onEveryRank(p, func(i int) error { return trs[i].Barrier(i) }); err != nil {
		closeAll()
		return nil, fmt.Errorf("connect barrier: %w", err)
	}
	return trs, nil
}

// callStats accumulates one phase of the closed loop.
type callStats struct {
	lat, inner, skew, modeled []float64 // ms per call
	bd                        twoface.Breakdown
	xfer                      twoface.TransferStats
	retries, degrades         int64
	hits, misses              int64
	calls, failed, mismatches int
	alloc                     uint64
	gcs                       uint32
}

// loop calls Multiply until d has passed and at least n calls are made,
// drawing B from the pool in turn and verifying each C outside the timed
// call. With a tracer, each call is an operation: a "call" span with the
// multiply, rank skew and verify spans as children.
func (w multiplyWorkload) loop(rs *ranks, pool, refs []*twoface.DenseMatrix, next *int, d time.Duration, n int, tr *tracer, root int) *callStats {
	st := &callStats{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(d)
	for ; st.calls < n || time.Now().Before(deadline); *next++ {
		b, want := pool[*next%len(pool)], refs[*next%len(pool)]
		op := tr.newOp()
		due := time.Now() // closed loop: due the moment the caller is ready
		res, done, err := rs.multiply(b)
		st.calls++
		if err != nil {
			st.failed++
			continue
		}
		first, last := done[0], done[0]
		for _, t := range done[1:] {
			first, last = minTime(first, t), maxTime(last, t)
		}
		st.lat = append(st.lat, ms(last.Sub(due)))
		st.skew = append(st.skew, ms(last.Sub(first)))
		var inner time.Duration
		var modeled float64
		for _, r := range res {
			inner = max(inner, r.Wall)
			modeled = max(modeled, r.ModeledSeconds)
			st.bd = addBreakdowns(st.bd, r.Breakdowns)
			st.xfer = st.xfer.Plus(r.TotalTransfer)
			st.retries += r.TotalResilience.GetRetries + r.TotalResilience.LegRetries
			st.degrades += r.TotalResilience.Degradations
			st.hits += r.RowCache.Hits
			st.misses += r.RowCache.Misses
		}
		st.inner = append(st.inner, ms(inner))
		st.modeled = append(st.modeled, 1e3*modeled)
		vStart := time.Now()
		ok := rs.verify(res, want)
		vEnd := time.Now()
		if !ok {
			st.failed++
			st.mismatches++
		}
		if tr != nil {
			call := tr.add(root, op, "call", layerBench, due, vEnd)
			tr.add(call, op, "multiply", layerExec, due, first)
			if len(done) > 1 {
				tr.add(call, op, "rank_skew", layerTCP, first, last)
			}
			tr.add(call, op, "verify", layerVerify, vStart, vEnd)
		}
	}
	runtime.ReadMemStats(&m1)
	st.alloc = m1.TotalAlloc - m0.TotalAlloc
	st.gcs = m1.NumGC - m0.NumGC
	return st
}

func addBreakdowns(sum twoface.Breakdown, bds []twoface.Breakdown) twoface.Breakdown {
	for _, b := range bds {
		sum.SyncComm += b.SyncComm
		sum.SyncComp += b.SyncComp
		sum.AsyncComm += b.AsyncComm
		sum.AsyncComp += b.AsyncComp
		sum.SyncOverlap += b.SyncOverlap
		sum.Other += b.Other
	}
	return sum
}

func (w multiplyWorkload) run(cfg config) (*outcome, error) {
	out := newOutcome()
	path := filepath.Join(cfg.dir, "a.bin")
	if w.text {
		path = filepath.Join(cfg.dir, "a.mtx")
	}

	// Inputs: A to a file, a pool of B operands, and each B's reference C
	// from the generated A (so the file reader is checked too).
	g0 := time.Now()
	a := twoface.Generate(w.matrix, w.scale, cfg.seed)
	var err error
	if w.text {
		err = twoface.WriteMatrixMarketFile(path, a)
	} else {
		err = twoface.WriteBinaryFile(path, a)
	}
	if err != nil {
		return nil, err
	}
	pool := make([]*twoface.DenseMatrix, w.pool)
	for i := range pool {
		pool[i] = twoface.RandomDense(int(a.NumCols), w.k, cfg.seed<<8|uint64(i+1))
	}
	out.metrics["gen.generate_s"] = time.Since(g0).Seconds()
	refs := make([]*twoface.DenseMatrix, w.pool)
	var refMs []float64
	for i, b := range pool {
		t := time.Now()
		if refs[i], err = twoface.Reference(a, b); err != nil {
			return nil, err
		}
		refMs = append(refMs, ms(time.Since(t)))
	}
	nnz, rows := float64(a.NNZ()), float64(a.NumRows)
	a = nil // garbage before setup, so plan_mb counts only what setup holds
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}

	// Setup, several times: setup_s is the median; the last one stays.
	var setups setupLog
	rs, held, err := setupRepeatedly(w.setups, &setups,
		func() (*ranks, setupTimes, error) { return w.setup(path, nil, 0) }, (*ranks).close)
	if err != nil {
		return nil, err
	}
	defer func() {
		if rs != nil {
			rs.close()
		}
	}()
	out.metrics["setup_s"] = setups.median(func(st setupTimes) time.Duration { return st.total })
	out.metrics["plan_mb"] = held / 1e6
	last := setups.last()
	fmt.Fprintf(cfg.log, "# %s@%g p=%d K=%d ranks=%d: setup %.3fs (read %.3fs, connect %.1fms, prep %.3fs)\n",
		w.matrix, w.scale, w.p, w.k, w.ranks, last.total.Seconds(), last.read.Seconds(), ms(last.connect), last.prep.Seconds())

	next := 0 // pool cursor: consecutive calls never share a B
	warm := w.loop(rs, pool, refs, &next, warmUp, 1, nil, 0)
	out.attempted, out.failed, out.mismatches = warm.calls, warm.failed, warm.mismatches
	span := cfg.seconds
	if cfg.trace {
		span /= 2
	}
	st := w.loop(rs, pool, refs, &next, span, minCalls, nil, 0)
	out.attempted += st.calls
	out.failed += st.failed
	out.mismatches += st.mismatches
	flops := 2 * nnz * float64(w.k)
	if err := w.endToEnd(out, st, flops, cfg); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return out, nil
	}

	// The traced run: setup once more and loop for the other half, with
	// every boundary recorded.
	tr := newTracer()
	root := tr.reserve(0, 0, "traced", "")
	t0 := time.Now()
	rs.close()
	setupSpan := tr.reserve(root, 0, "setup", layerBench)
	s0 := time.Now()
	if rs, last, err = w.setup(path, tr, setupSpan); err != nil {
		return nil, err
	}
	tr.finish(setupSpan, s0, time.Now())
	setups = append(setups, last)
	ts := w.loop(rs, pool, refs, &next, span, minCalls, tr, root)
	tr.finish(root, t0, time.Now())
	out.attempted += ts.calls
	out.failed += ts.failed
	out.mismatches += ts.mismatches
	if err := tr.write(cfg.spans); err != nil {
		return nil, err
	}

	m := out.metrics
	m["sparse.read_s"] = setups.median(func(st setupTimes) time.Duration { return st.read })
	m["sparse.read_mb_per_s"] = float64(fi.Size()) / 1e6 / m["sparse.read_s"]
	m["sparse.reference_ms"] = newDist(refMs).median()
	prep := rs.plans[0].Stats()
	m["core.prep_s"] = setups.median(func(st setupTimes) time.Duration { return st.prep })
	m["core.prep.sync_stripes"] = float64(prep.SyncStripes)
	m["core.prep.async_stripes"] = float64(prep.AsyncStripes)
	m["core.prep.sync_nnz_frac"] = float64(prep.SyncNNZ) / float64(prep.TotalNNZ)
	m["core.prep.avg_fanout"] = prep.AvgMulticastFanout
	m["core.prep.memcap_flips"] = float64(prep.MemCapFlips)
	calls := float64(ts.calls - ts.failed)
	lat := newDist(ts.lat)
	m["core.exec_ms"] = lat.median()
	m["core.exec.inner_ms"] = newDist(ts.inner).median()
	m["core.exec.vs_reference"] = lat.median() / m["sparse.reference_ms"]
	m["core.exec.alloc_mb_per_call"] = float64(ts.alloc) / 1e6 / float64(ts.calls)
	m["core.exec.gc_per_call"] = float64(ts.gcs) / float64(ts.calls)
	m["core.exec.row_cache_hit_ratio"] = ratio(ts.hits, ts.hits+ts.misses)
	m["core.exec.modeled_sync_comm_ms"] = 1e3 * ts.bd.SyncComm / calls
	m["core.exec.modeled_sync_comp_ms"] = 1e3 * ts.bd.SyncComp / calls
	m["core.exec.modeled_async_comm_ms"] = 1e3 * ts.bd.AsyncComm / calls
	m["core.exec.modeled_async_comp_ms"] = 1e3 * ts.bd.AsyncComp / calls
	m["core.exec.modeled_overlap_ms"] = 1e3 * ts.bd.SyncOverlap / calls
	m["core.exec.modeled_other_ms"] = 1e3 * ts.bd.Other / calls
	kernelCounts(m, nnz, rows, w.k)
	wire := float64(ts.xfer.CollectiveBytes + ts.xfer.OneSidedBytes)
	m["cluster.collective_mb"] = float64(ts.xfer.CollectiveBytes) / 1e6 / calls
	m["cluster.collective_msgs"] = float64(ts.xfer.CollectiveMsgs) / calls
	m["cluster.one_sided_mb"] = float64(ts.xfer.OneSidedBytes) / 1e6 / calls
	m["cluster.one_sided_gets"] = float64(ts.xfer.OneSidedGets) / calls
	m["cluster.one_sided_msgs"] = float64(ts.xfer.OneSidedMsgs) / calls
	m["cluster.retries"] = float64(ts.retries) / calls
	m["cluster.degrades"] = float64(ts.degrades) / calls
	if w.ranks > 1 {
		m["transport.tcp.connect_ms"] = ms(last.connect)
		m["transport.tcp.wire_mb_per_s"] = wire / 1e6 / (lat.sum() / 1e3)
		m["transport.tcp.rank_skew_ms"] = newDist(ts.skew).median()
	}
	m["loadgen.samples"] = float64(len(ts.lat))
	m["trace.overhead_frac"] = lat.median()/newDist(st.lat).median() - 1
	tab := tabulate(tr.spans)
	out.table = &tab
	traceMetrics(m, tab)
	return out, nil
}

// endToEnd fills the untraced end-to-end metrics of a closed loop. The
// single caller's requests are its calls, due the moment it is ready, so
// request latency is call latency as the caller sees it, and the highest
// rate under the limit is the rate of calls that met it.
func (w multiplyWorkload) endToEnd(out *outcome, st *callStats, flops float64, cfg config) error {
	lat := newDist(st.lat)
	tail, q, nb, err := blockTail(st.lat)
	if err != nil {
		return err
	}
	m := out.metrics
	m["multiply_ms_p50"] = lat.median()
	m["multiply_ms_tail"] = tail
	m["request_ms_p50"] = lat.median()
	m["request_ms_tail"] = tail
	m["spmm_gflops"] = flops * float64(len(st.lat)) / (lat.sum() / 1e3) / 1e9
	m["modeled_ms"] = newDist(st.modeled).median()
	var met int
	for _, l := range st.lat {
		if l <= ms(w.slo) {
			met++
		}
	}
	m["max_qps_under_slo"] = float64(met) / (lat.sum() / 1e3)
	fmt.Fprintf(cfg.log, "# %d calls (closed loop, 1 caller); N=%d timed, tail = median over %d blocks of each block's p%g; latency limit %v\n",
		st.calls, len(st.lat), nb, q, w.slo)
	return nil
}

// kernelCounts are computed from sizes, not measured: 2·nnz·K flops, and
// the bytes a single pass must touch (A's entries, one B row per nonzero,
// and C read and written once).
func kernelCounts(m map[string]float64, nnz, rows float64, k int) {
	flops := 2 * nnz * float64(k)
	bytes := 16*nnz + 8*float64(k)*nnz + 16*rows*float64(k)
	m["kernels.flops_per_call"] = flops
	m["kernels.bytes_per_call"] = bytes
	m["kernels.flops_per_byte"] = flops / bytes
}

// traceMetrics reports the traced run's layer self times.
func traceMetrics(m map[string]float64, t layerTable) {
	for _, l := range traceLayers {
		m["trace.self_ms."+l] = float64(t.Self[l]) / 1e6
	}
	m["trace.unaccounted_frac"] = 1 - t.accounted()
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func minTime(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}
