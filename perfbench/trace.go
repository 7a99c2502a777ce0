package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Layers spans are attributed to, named after the repository's packages.
// A root span carries no layer: its self time is the part of the traced
// wall time no layer accounts for.
const (
	layerSparse   = "sparse"        // Matrix Market / binary read
	layerPrep     = "core.prep"     // System.Preprocess
	layerExec     = "core.exec"     // Plan.Multiply, or the server's execution
	layerVerify   = "verify"        // comparison against twoface.Reference
	layerTCP      = "transport.tcp" // connect/handshake and rank skew
	layerServe    = "serve"         // server time outside queue and execution
	layerQueue    = "serve.queue"   // admission queue wait
	layerCoalesce = "serve.coalesce"
	layerHTTP     = "http"    // client, loopback socket and codec
	layerLoadgen  = "loadgen" // sends that left after their due time
	layerBench    = "bench"   // the benchmark's own loop bookkeeping
)

// reconcileTolerance is the share of a workload's traced wall time that may
// go unaccounted for by layer self times before the run is flagged.
const reconcileTolerance = 0.05

// span is one timed interval of the traced run. Spans of one operation (a
// multiply call and its verification, or one HTTP request) share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: a root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp returns a fresh operation ID.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(parent, op int, name, layer string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// reserve allocates a span ID whose interval is filled in later by finish,
// so children can name a parent that has not ended yet.
func (t *tracer) reserve(parent, op int, name, layer string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(parent, op, name, layer, now, now)
}

func (t *tracer) finish(id int, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Start = start.Sub(t.epoch).Nanoseconds()
	s.End = end.Sub(t.epoch).Nanoseconds()
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(t.spans)
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		default:
			curHi = max(curHi, x[1])
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// layerTable is the traced run's per-layer self time. Wall is the summed
// duration of root spans; Unaccounted is the roots' own self time.
type layerTable struct {
	Self        map[string]int64
	Wall        int64
	Unaccounted int64
}

func tabulate(spans []span) layerTable {
	self := selfTimes(spans)
	t := layerTable{Self: map[string]int64{}}
	for _, s := range spans {
		if s.Parent == 0 {
			t.Wall += s.dur()
		}
		if s.Layer == "" {
			t.Unaccounted += self[s.ID]
			continue
		}
		t.Self[s.Layer] += self[s.ID]
	}
	return t
}

// accounted is the summed layer self time over the wall time: 1 when the
// layers explain every traced nanosecond exactly, above 1 when sibling
// spans overlap and are counted twice.
func (t layerTable) accounted() float64 {
	if t.Wall == 0 {
		return 0
	}
	var s int64
	for _, v := range t.Self {
		s += v
	}
	return float64(s) / float64(t.Wall)
}

// reconciles reports whether layer self times account for the traced wall
// time within reconcileTolerance.
func (t layerTable) reconciles() bool {
	a := t.accounted()
	return a >= 1-reconcileTolerance && a <= 1+reconcileTolerance
}

func (t layerTable) print(w io.Writer, workload string) {
	layers := make([]string, 0, len(t.Self))
	for l := range t.Self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return t.Self[layers[i]] > t.Self[layers[j]] })
	fmt.Fprintf(w, "# traced self time, %s (wall %.1f ms over root spans)\n", workload, float64(t.Wall)/1e6)
	for _, l := range layers {
		fmt.Fprintf(w, "#   %-16s %10.1f ms  %5.1f%%\n", l, float64(t.Self[l])/1e6, 100*float64(t.Self[l])/float64(t.Wall))
	}
	fmt.Fprintf(w, "#   %-16s %10.1f ms  %5.1f%%\n", "(unaccounted)", float64(t.Unaccounted)/1e6, 100*float64(t.Unaccounted)/float64(t.Wall))
	verdict := "ok"
	if !t.reconciles() {
		verdict = "FLAGGED"
	}
	fmt.Fprintf(w, "# layers account for %.1f%% of traced wall time (tolerance ±%.0f%%): %s\n",
		100*t.accounted(), 100*reconcileTolerance, verdict)
}
