package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"twoface"
	"twoface/internal/serve"
)

// serveWorkload is an open loop at a fixed rate against an in-process
// serve.Server holding several small resident plans, plus a ladder of
// higher rates that finds the highest one meeting the latency limit.
type serveWorkload struct {
	plans  int
	matrix string
	scale  float64
	p, k   int
	// rate is the fixed offered load, about half the capacity measured on
	// a 2-core host. The ladder starts at rate*ladderFrom, below that
	// capacity, and climbs in rate*ladderStep increments.
	rate                   float64
	ladderFrom, ladderStep float64
	slo                    time.Duration
	// Request mix: a Zipf-skewed working set of seed-addressed operands
	// per plan, inline octet-stream operands, bursts of exact duplicates,
	// and every includeCEvery-th request returning C for verification.
	seeds, inlineOps int
	inlineFrac       float64
	dupFrac          float64
	dupBurst         int
	includeCEvery    int
	setups           int
}

var serveWeb = serveWorkload{plans: 4, matrix: "web", scale: 0.05, p: 4, k: 32,
	rate: 150, ladderFrom: 1.5, ladderStep: 0.1, slo: 50 * time.Millisecond,
	seeds: 8, inlineOps: 2, inlineFrac: 0.2, dupFrac: 0.1, dupBurst: 2, includeCEvery: 128, setups: 9}

func runServeWeb(cfg config) (*outcome, error) { return serveWeb.run(cfg) }

// request is one scheduled request.
type request struct {
	plan     int
	seed     uint64 // seed-addressed operand, when inline < 0
	inline   int    // index into the plan's inline operands, or -1
	includeC bool
	dup      bool // part of a burst of exact duplicates
}

// sample is one request's timeline and outcome. Latency counts from due, so
// a stall that delays later sends shows in their latency too.
type sample struct {
	due, sent, first, done time.Time
	status                 int
	err                    error
	resp                   serve.MultiplyResponse
	body                   []byte // kept for include_c responses, verified later
	checked                bool   // an include_c sample: verified, not timed
	bad                    bool   // failed verification
}

// timed reports whether the sample counts in latency statistics: it
// succeeded and is not a verification sample, whose response carries all of
// C and would set the tail by itself.
func (s *sample) timed() bool { return !s.failed() && !s.checked }

func (s *sample) failed() bool { return s.err != nil || s.status != http.StatusOK || s.bad }

func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }

// openLoop sends request i at start+due[i] from senders concurrent
// senders. A request whose sender is still busy leaves late; its lateness
// is sent-due and it is still timed from due.
func openLoop(start time.Time, due []time.Duration, senders int, send func(i int, s *sample)) []sample {
	out := make([]sample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				s := &out[i]
				s.due = start.Add(due[i])
				time.Sleep(time.Until(s.due))
				s.sent = time.Now()
				send(i, s)
			}
		}()
	}
	wg.Wait()
	return out
}

// schedule draws n requests from the mix; seeds and choices derive from rng.
func (w serveWorkload) schedule(rng *rand.Rand, n int, opSeed func(plan, i int) uint64) []request {
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(w.seeds-1))
	var reqs []request
	for len(reqs) < n {
		r := request{plan: rng.Intn(w.plans), inline: -1}
		x := rng.Float64()
		if x < w.inlineFrac {
			r.inline = rng.Intn(w.inlineOps)
		} else {
			r.seed = opSeed(r.plan, int(zipf.Uint64()))
		}
		if x >= w.inlineFrac && x < w.inlineFrac+w.dupFrac {
			r.dup = true
			for j := 0; j < w.dupBurst; j++ {
				reqs = append(reqs, r)
			}
			continue
		}
		reqs = append(reqs, r)
	}
	reqs = reqs[:n]
	for i := range reqs {
		reqs[i].includeC = i%w.includeCEvery == w.includeCEvery-1
	}
	return reqs
}

// server is the set-up daemon and what the client needs to address it.
type server struct {
	srv   *serve.Server
	names []string
	nnz   []float64
	rows  []float64
	prep  twoface.PrepStats
}

func (w serveWorkload) setup(paths []string, tr *tracer, parent int) (*server, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	reg := serve.NewRegistry()
	sv := &server{}
	for i, path := range paths {
		r0 := time.Now()
		a, err := twoface.ReadBinaryFile(path)
		if err != nil {
			return nil, st, err
		}
		p0 := time.Now()
		st.read += p0.Sub(r0)
		tr.add(parent, 0, "read", layerSparse, r0, p0)
		sys, err := twoface.New(twoface.Options{Nodes: w.p, DenseColumns: w.k})
		if err != nil {
			return nil, st, err
		}
		plan, err := sys.Preprocess(a)
		if err != nil {
			return nil, st, err
		}
		t := time.Now()
		st.prep += t.Sub(p0)
		tr.add(parent, 0, "prep", layerPrep, p0, t)
		name := fmt.Sprintf("%s%d", w.matrix, i)
		if err := reg.Add(&serve.Resident{Name: name, Plan: plan, K: w.k, Source: path}); err != nil {
			return nil, st, err
		}
		sv.names = append(sv.names, name)
		sv.nnz = append(sv.nnz, float64(a.NNZ()))
		sv.rows = append(sv.rows, float64(a.NumRows))
		ps := plan.Stats()
		sv.prep.TotalNNZ += ps.TotalNNZ
		sv.prep.SyncNNZ += ps.SyncNNZ
		sv.prep.SyncStripes += ps.SyncStripes
		sv.prep.AsyncStripes += ps.AsyncStripes
		sv.prep.MemCapFlips += ps.MemCapFlips
		sv.prep.AvgMulticastFanout += ps.AvgMulticastFanout / float64(len(paths))
	}
	l0 := time.Now()
	sv.srv = serve.New(serve.Config{}, reg)
	if err := sv.srv.Start("127.0.0.1:0"); err != nil {
		return nil, st, err
	}
	t := time.Now()
	tr.add(parent, 0, "listen", layerServe, l0, t)
	st.total = t.Sub(start)
	return sv, st, nil
}

// client sends one scheduled request and records its timeline.
type client struct {
	http   *http.Client
	url    string
	names  []string
	inline [][][]byte // per plan, the encoded inline operands
}

func (c *client) send(r request, s *sample) {
	var req *http.Request
	var err error
	if r.inline >= 0 {
		q := "?plan=" + c.names[r.plan]
		if r.includeC {
			q += "&include_c=1"
		}
		req, err = http.NewRequest(http.MethodPost, c.url+q, bytes.NewReader(c.inline[r.plan][r.inline]))
		if err == nil {
			req.Header.Set("Content-Type", "application/octet-stream")
		}
	} else {
		seed := r.seed
		body, _ := json.Marshal(serve.MultiplyRequest{Plan: c.names[r.plan], Seed: &seed, IncludeC: r.includeC})
		req, err = http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		s.err = err
		s.done = time.Now()
		return
	}
	resp, err := c.http.Do(req)
	s.first = time.Now()
	if err != nil {
		s.err = err
		s.done = s.first
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	s.status = resp.StatusCode
	if err != nil {
		s.err = err
		return
	}
	if s.status != http.StatusOK {
		return
	}
	if r.includeC {
		s.body, s.checked = body, true
		return
	}
	s.err = json.Unmarshal(body, &s.resp)
}

// outcomeCounts tallies a phase's attempted and failed operations: errors,
// non-200 responses (429 sheds included) and verification failures.
func outcomeCounts(samples []sample) (attempted, failed, shed int) {
	for i := range samples {
		s := &samples[i]
		attempted++
		if s.failed() {
			failed++
		}
		if s.status == http.StatusTooManyRequests {
			shed++
		}
	}
	return attempted, failed, shed
}

// tally returns attempted, failed and verification-failed operations.
func tally(samples []sample) (attempted, failed, mismatches int) {
	attempted, failed, _ = outcomeCounts(samples)
	for i := range samples {
		if samples[i].bad {
			mismatches++
		}
	}
	return attempted, failed, mismatches
}

// phase runs the open loop at rate for d and verifies the include_c sample
// afterwards, outside every timed interval.
func (w serveWorkload) phase(c *client, reqs []request, refs func(request) *twoface.DenseMatrix, rate float64, d time.Duration) []sample {
	n := max(int(rate*d.Seconds()), minCalls)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	samples := openLoop(time.Now(), due, runtime.NumCPU(), func(i int, s *sample) {
		c.send(reqs[i%len(reqs)], s)
	})
	for i := range samples {
		s := &samples[i]
		if s.body == nil {
			continue
		}
		if err := json.Unmarshal(s.body, &s.resp); err != nil {
			s.err = err
			continue
		}
		s.body = nil
		want := refs(reqs[i%len(reqs)])
		got := &twoface.DenseMatrix{Rows: s.resp.Rows, Cols: s.resp.K, Data: s.resp.C}
		if len(got.Data) != got.Rows*got.Cols || !got.AlmostEqual(want, 1e-9) {
			s.bad = true
		}
	}
	return samples
}

// meetsLimit reports whether a step at the offered rate met the latency
// limit with no failure and no growing backlog: the last request left no
// later than the limit, and completions kept up with 95% of the offered
// rate.
func (w serveWorkload) meetsLimit(samples []sample, rate float64) bool {
	var lat []float64
	for i := range samples {
		if samples[i].failed() {
			return false
		}
		if samples[i].timed() {
			lat = append(lat, ms(samples[i].latency()))
		}
	}
	tail, _, _, err := blockTail(lat)
	last := samples[len(samples)-1]
	return err == nil && tail <= ms(w.slo) && last.sent.Sub(last.due) <= w.slo &&
		throughput(samples) >= 0.95*rate
}

// throughput is the completed rate of a phase, from first due to last done.
func throughput(samples []sample) float64 {
	var end time.Time
	for i := range samples {
		end = maxTime(end, samples[i].done)
	}
	return float64(len(samples)) / end.Sub(samples[0].due).Seconds()
}

func (w serveWorkload) run(cfg config) (*outcome, error) {
	out := newOutcome()
	g0 := time.Now()
	paths := make([]string, w.plans)
	as := make([]*twoface.SparseMatrix, w.plans)
	inline := make([][][]byte, w.plans)
	inlineB := make([][]*twoface.DenseMatrix, w.plans)
	for i := range as {
		as[i] = twoface.Generate(w.matrix, w.scale, cfg.seed*uint64(w.plans)+uint64(i))
		paths[i] = filepath.Join(cfg.dir, fmt.Sprintf("a%d.bin", i))
		if err := twoface.WriteBinaryFile(paths[i], as[i]); err != nil {
			return nil, err
		}
		for j := 0; j < w.inlineOps; j++ {
			b := twoface.RandomDense(int(as[i].NumCols), w.k, cfg.seed<<16|uint64(i<<8|j)|1<<40)
			inlineB[i] = append(inlineB[i], b)
			raw := make([]byte, 8*len(b.Data))
			for k, v := range b.Data {
				binary.LittleEndian.PutUint64(raw[8*k:], math.Float64bits(v))
			}
			inline[i] = append(inline[i], raw)
		}
	}
	out.metrics["gen.generate_s"] = time.Since(g0).Seconds()
	opSeed := func(plan, i int) uint64 { return cfg.seed<<16 | uint64(plan<<8|i) }

	// Reference C for every operand a request can address.
	refs := map[[2]int]*twoface.DenseMatrix{}
	var refMs []float64
	for i, a := range as {
		for j := 0; j < w.seeds+w.inlineOps; j++ {
			b := twoface.RandomDense(int(a.NumCols), w.k, opSeed(i, j))
			if j >= w.seeds {
				b = inlineB[i][j-w.seeds]
			}
			t := time.Now()
			ref, err := twoface.Reference(a, b)
			if err != nil {
				return nil, err
			}
			refMs = append(refMs, ms(time.Since(t)))
			refs[[2]int{i, j}] = ref
		}
	}
	refOf := func(r request) *twoface.DenseMatrix {
		if r.inline >= 0 {
			return refs[[2]int{r.plan, w.seeds + r.inline}]
		}
		return refs[[2]int{r.plan, int(r.seed & 0xff)}]
	}
	as = nil // garbage before setup, so plan_mb counts only what setup holds

	var setups setupLog
	sv, held, err := setupRepeatedly(w.setups, &setups,
		func() (*server, setupTimes, error) { return w.setup(paths, nil, 0) }, func(sv *server) { sv.srv.Close() })
	if err != nil {
		return nil, err
	}
	defer func() {
		if sv != nil {
			sv.srv.Close()
		}
	}()
	out.metrics["setup_s"] = setups.median(func(st setupTimes) time.Duration { return st.total })
	out.metrics["plan_mb"] = held / 1e6

	senders := runtime.NumCPU()
	hc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	c := &client{http: hc, url: "http://" + sv.srv.Addr() + "/v1/multiply", names: sv.names, inline: inline}
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	reqs := w.schedule(rng, 4096, opSeed)
	fmt.Fprintf(cfg.log, "# %d x %s@%g p=%d K=%d: open loop at %g req/s from %d senders, latency limit %v\n",
		w.plans, w.matrix, w.scale, w.p, w.k, w.rate, senders, w.slo)
	w.printMix(cfg, reqs)

	// Warm-up: a second of the same traffic, verified and not timed, so
	// lazy state (operand cache, row caches, pooled connections) fills
	// before timing.
	all := w.phase(c, reqs, refOf, w.rate, warmUp)

	span := cfg.seconds * 6 / 10
	fixed := w.phase(c, reqs, refOf, w.rate, span)
	all = append(all, fixed...)
	nnzOf := func(s *sample) float64 {
		for i, n := range sv.names {
			if n == s.resp.Plan {
				return sv.nnz[i]
			}
		}
		return 0
	}
	var lat, execMs, modeled []float64
	var flops, execSum float64
	for i := range fixed {
		s := &fixed[i]
		if !s.timed() {
			continue
		}
		lat = append(lat, ms(s.latency()))
		modeled = append(modeled, 1e3*s.resp.ModeledSeconds)
		if !s.resp.Coalesced {
			execMs = append(execMs, s.resp.ExecMillis)
			execSum += s.resp.ExecMillis
			flops += 2 * nnzOf(s) * float64(w.k)
		}
	}
	m := out.metrics
	ld, ed := newDist(lat), newDist(execMs)
	var q, eq float64
	var nb, enb int
	if m["request_ms_tail"], q, nb, err = blockTail(lat); err != nil {
		return nil, err
	}
	if m["multiply_ms_tail"], eq, enb, err = blockTail(execMs); err != nil {
		return nil, err
	}
	m["request_ms_p50"] = ld.median()
	m["multiply_ms_p50"] = ed.median()
	m["spmm_gflops"] = flops / (execSum / 1e3) / 1e9
	m["modeled_ms"] = newDist(modeled).median()
	fmt.Fprintf(cfg.log, "# fixed rate: N=%d requests, tail = median over %d blocks of each block's p%g; N=%d executions, tail = median over %d blocks of p%g\n",
		len(lat), nb, q, len(execMs), enb, eq)

	if !cfg.trace {
		// The ladder: rate*ladderFrom, then up by rate*ladderStep a step,
		// each step seconds/20 long, until two steps in a row miss the
		// limit; the achieved rate of the highest step meeting it sets
		// max_qps_under_slo. Needing two misses keeps one hiccup of a
		// shared host from ending the climb.
		best := 0.0
		if w.meetsLimit(fixed, w.rate) {
			best = throughput(fixed)
		}
		const steps = 20
		for k, misses := 0, 0; k < steps && best > 0 && misses < 2; k++ {
			r := w.rate * (w.ladderFrom + w.ladderStep*float64(k))
			step := w.phase(c, reqs, refOf, r, cfg.seconds/20)
			all = append(all, step...)
			ok := w.meetsLimit(step, r)
			fmt.Fprintf(cfg.log, "# ladder %6.1f req/s: achieved %6.1f, meets limit %v\n", r, throughput(step), ok)
			if !ok {
				misses++
				continue
			}
			misses = 0
			best = throughput(step)
		}
		m["max_qps_under_slo"] = best
	}
	out.attempted, out.failed, out.mismatches = tally(all)
	if !cfg.trace {
		return out, nil
	}

	// The traced run: set up once more and run the fixed rate again, each
	// request a root span with its timeline and the server's own split
	// (from the response fields) as children.
	tr := newTracer()
	sv.srv.Close()
	setupSpan := tr.reserve(0, 0, "setup", layerBench)
	s0 := time.Now()
	var last setupTimes
	if sv, last, err = w.setup(paths, tr, setupSpan); err != nil {
		return nil, err
	}
	tr.finish(setupSpan, s0, time.Now())
	setups = append(setups, last)
	c.url = "http://" + sv.srv.Addr() + "/v1/multiply"
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced := w.phase(c, reqs, refOf, w.rate, span)
	runtime.ReadMemStats(&m1)
	att, failed, mismatches := tally(traced)
	_, _, shed := outcomeCounts(traced)
	out.attempted += att
	out.failed += failed
	out.mismatches += mismatches
	var tlat, texec, queue, httpMs []float64
	var ok, coalesced, hits, misses int64
	for i := range traced {
		s := &traced[i]
		op := tr.newOp()
		root := tr.add(0, op, "request", "", s.due, s.done)
		tr.add(root, op, "late", layerLoadgen, s.due, s.sent)
		if s.failed() {
			tr.add(root, op, "failed", layerHTTP, s.sent, s.done)
			continue
		}
		ok++
		if s.timed() {
			tlat = append(tlat, ms(s.latency()))
		}
		wait := tr.add(root, op, "wait", layerHTTP, s.sent, s.first)
		tr.add(root, op, "read_body", layerHTTP, s.first, s.done)
		total := time.Duration(s.resp.TotalMillis * float64(time.Millisecond))
		srvStart := s.first.Add(-total)
		srv := tr.add(wait, op, "server", layerServe, srvStart, s.first)
		httpMs = append(httpMs, ms(s.first.Sub(s.sent))-s.resp.TotalMillis)
		if s.resp.Coalesced {
			coalesced++
			tr.add(srv, op, "coalesced", layerCoalesce, srvStart, s.first)
			continue
		}
		qd := time.Duration(s.resp.QueueMillis * float64(time.Millisecond))
		ed := time.Duration(s.resp.ExecMillis * float64(time.Millisecond))
		tr.add(srv, op, "queue", layerQueue, srvStart, srvStart.Add(qd))
		tr.add(srv, op, "exec", layerExec, srvStart.Add(qd), srvStart.Add(qd+ed))
		texec = append(texec, s.resp.ExecMillis)
		queue = append(queue, s.resp.QueueMillis)
		hits += s.resp.RowCacheHits
		misses += s.resp.RowCacheMisses
	}
	if err := tr.write(cfg.spans); err != nil {
		return nil, err
	}

	var late []float64
	for i := range traced {
		late = append(late, ms(traced[i].sent.Sub(traced[i].due)))
	}
	var size int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		size += fi.Size()
	}
	m["sparse.read_s"] = setups.median(func(st setupTimes) time.Duration { return st.read })
	m["sparse.read_mb_per_s"] = float64(size) / 1e6 / m["sparse.read_s"]
	m["sparse.reference_ms"] = newDist(refMs).median()
	m["core.prep_s"] = setups.median(func(st setupTimes) time.Duration { return st.prep })
	m["core.prep.sync_stripes"] = float64(sv.prep.SyncStripes)
	m["core.prep.async_stripes"] = float64(sv.prep.AsyncStripes)
	m["core.prep.sync_nnz_frac"] = float64(sv.prep.SyncNNZ) / float64(sv.prep.TotalNNZ)
	m["core.prep.avg_fanout"] = sv.prep.AvgMulticastFanout
	m["core.prep.memcap_flips"] = float64(sv.prep.MemCapFlips)
	te := newDist(texec)
	m["core.exec_ms"] = te.median()
	m["core.exec.vs_reference"] = te.median() / m["sparse.reference_ms"]
	m["core.exec.alloc_mb_per_call"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(len(traced))
	m["core.exec.gc_per_call"] = float64(m1.NumGC-m0.NumGC) / float64(len(traced))
	m["core.exec.row_cache_hit_ratio"] = ratio(hits, hits+misses)
	var nnz, rows float64
	for i := range sv.nnz {
		nnz += sv.nnz[i] / float64(len(sv.nnz))
		rows += sv.rows[i] / float64(len(sv.rows))
	}
	kernelCounts(m, nnz, rows, w.k)
	qd := newDist(queue)
	m["serve.exec_ms_p50"] = te.median()
	m["serve.queue_ms_p50"] = qd.median()
	if m["serve.queue_ms_tail"], _, _, err = blockTail(queue); err != nil {
		return nil, err
	}
	m["serve.http_ms_p50"] = newDist(httpMs).median()
	m["serve.coalesced_frac"] = float64(coalesced) / float64(ok)
	m["serve.shed_frac"] = float64(shed) / float64(att)
	m["serve.row_cache_hit_ratio"] = ratio(hits, hits+misses)
	m["serve.queue_high_water"] = float64(sv.srv.QueueHighWater())
	m["loadgen.late_ms_p99"] = newDist(late).at(99)
	m["loadgen.samples"] = float64(len(traced))
	m["trace.overhead_frac"] = newDist(tlat).median()/ld.median() - 1
	tab := tabulate(tr.spans)
	out.table = &tab
	traceMetrics(m, tab)
	return out, nil
}

// printMix reports the measured shares of the request mix: operands seen
// earlier in the schedule (the operand cache can serve them), operands the
// same plan's previous request also used (the row cache can serve them),
// inline operands, and members of duplicate bursts (coalescing can serve
// them).
func (w serveWorkload) printMix(cfg config, reqs []request) {
	seen := map[[3]uint64]bool{}
	prev := map[int][3]uint64{}
	var repeated, again, inline, dup int
	for _, r := range reqs {
		key := [3]uint64{uint64(r.plan), r.seed, uint64(r.inline + 1)}
		if seen[key] {
			repeated++
		}
		if p, ok := prev[r.plan]; ok && p == key {
			again++
		}
		seen[key] = true
		prev[r.plan] = key
		if r.inline >= 0 {
			inline++
		}
		if r.dup {
			dup++
		}
	}
	n := float64(len(reqs))
	fmt.Fprintf(cfg.log, "# request mix over %d scheduled: operand seen before %.3f, same operand as the plan's previous request %.3f, inline %.3f, duplicate-burst %.3f, include_c 1/%d\n",
		len(reqs), float64(repeated)/n, float64(again)/n, float64(inline)/n, float64(dup)/n, w.includeCEvery)
}
