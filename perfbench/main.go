// Command perfbench is the repository's end-to-end wall-clock benchmark. It
// generates its inputs from a seed, writes them to files, and drives the
// public entry points the way a user would: ReadMatrixMarketFile or
// ReadBinaryFile, System.Preprocess, Plan.Multiply on the simulator or on a
// two-rank TCP cluster, and the serving daemon over loopback HTTP. Every
// checked result is compared with twoface.Reference.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload train-twitter --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. An untraced run (--trace 0) reports the end-to-end
// metrics; a traced run (--trace 1) reports the per-layer metrics and the
// per-layer self-time table. A wrong result exits 1. See README.md for the
// workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	dir     string // working directory for generated inputs
	spans   string // where a traced run writes its spans
	log     io.Writer
}

// outcome is what a workload run measured.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	// mismatches counts results that failed verification; any makes the
	// command exit non-zero.
	mismatches int
	table      *layerTable
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

var workloads = map[string]func(config) (*outcome, error){
	"train-twitter": runTrainTwitter,
	"tcp-kmer":      runTCPKmer,
	"serve-web":     runServeWeb,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: train-twitter, tcp-kmer or serve-web")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	work := fs.String("workdir", ".bench_build", "directory for generated inputs and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		dir:     filepath.Join(*work, "inputs", fmt.Sprintf("%s-seed%d-pid%d", *name, *seed, os.Getpid())),
		spans:   filepath.Join(*work, "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed)),
		log:     stdout,
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.dir)
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%g trace=%v host: nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		*name, cfg.seed, *seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if out.table != nil {
		out.table.print(stdout, *name)
	}
	if err := printResult(stdout, out, cfg.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if out.mismatches > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d results differ from twoface.Reference\n", *name, out.mismatches)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// commit names the source revision when the build recorded one.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// printResult writes the human-readable metric lines and, last, the JSON
// result line. A traced run reports the per-layer set (0 where the workload
// does not reach a layer); an untraced run must have measured every
// end-to-end metric.
func printResult(w io.Writer, out *outcome, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   out.mismatches == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricJSON{},
	}
	if out.attempted < 1 {
		return fmt.Errorf("no operations attempted")
	}
	out.metrics["error_rate"] = float64(out.failed) / float64(out.attempted)
	fmt.Fprintf(w, "# error_rate %.4g = %d failed / %d attempted operations\n",
		out.metrics["error_rate"], out.failed, out.attempted)
	if traced {
		fmt.Fprintln(w, "# end-to-end, untraced half of this run:")
		for _, d := range endToEnd {
			if v, ok := out.metrics[d.name]; ok {
				fmt.Fprintf(w, "#   %-34s %14.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
