// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time on inputs generated from a seed, checks the
// program's outputs, and prints its metrics as the last line of standard
// output:
//
//	perfbench -workload shm-pair -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured with tracing
// off. With -trace 1 it runs the traced layer map instead and reports the
// per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// reps is how many times an untraced run sets up and measures, splitting
// the run's time between them. A world's rate varies by about 10% from
// one to the next on a 2-core host, and the host has bursts of slowness,
// so a run reports the median over many short reps rather than one long
// loop.
const reps = 30

// layerReps is the reps per phase of the traced run.
const layerReps = 5

// workloads maps each workload to its conduit and to the function that
// sets it up once and runs its timed loop for slice.
var workloads = map[string]struct {
	conduit string
	run     func(dir string, seed uint64, repIdx int, slice time.Duration, traced bool) (rep, error)
}{
	"shm-pair":   {"shm", runShmPair},
	"dht-batch":  {"in-process", runDHTBatch},
	"task-drain": {"in-process", runTaskDrain},
}

func main() {
	workload := flag.String("workload", "", "workload: shm-pair, dht-batch or task-drain")
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "seconds to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "run"), "directory for results, span files and rank bootstrap")
	child := flag.String("child", "", "internal: run as a rank process of this workload")
	repIdx := flag.Int("rep", 0, "internal: rep index of a rank process")
	slice := flag.Duration("slice", 0, "internal: timed loop length of a rank process")
	out := flag.String("out", "", "internal: result directory of a rank process")
	flag.Parse()

	if *child == "shm-pair" {
		os.Exit(shmPairChild(*seed, *repIdx, *slice, *trace == 1, *out))
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload shm-pair|dht-batch|task-drain, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 0 {
		res, err = runEndToEnd(*dir, *workload, *seed, budget)
	} else {
		res, err = runLayerMap(*dir, *workload, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	info := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"conduit": workloads[*workload].conduit, "ranks": 2, "reps": map[int]int{0: reps, 1: 2 * layerReps}[*trace],
		"errors": res.errors, "samples": res.samples,
	}
	record := map[string]any{"info": info, "result": res, "reps": res.reps}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *trace)
	if b, err := json.MarshalIndent(record, "", "  "); err == nil {
		if err := os.WriteFile(filepath.Join(*dir, name), b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	for _, e := range res.errors {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	ib, _ := json.Marshal(info)
	fmt.Println(string(ib))
	rb, _ := json.Marshal(res)
	fmt.Println(string(rb))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	errors    []string
	samples   map[string]int // sample counts behind the percentiles
	reps      []repSummary   // per rep of an untraced run, for the results file
}

func (r *result) count(p *pooled) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.errors = append(r.errors, p.errors...)
	r.Correct = r.Failed == 0
}

// runReps runs a workload's reps in turn, rep i traced when traced(i),
// and splits each rep's result by that flag.
func runReps(dir, workload string, seed uint64, n int, slice time.Duration, traced func(i int) bool) (un, tr []rep, err error) {
	for i := 0; i < n; i++ {
		r, err := workloads[workload].run(dir, seed, i, slice, traced(i))
		if err != nil {
			return nil, nil, err
		}
		if traced(i) {
			tr = append(tr, r)
		} else {
			un = append(un, r)
		}
		runtime.GC()
	}
	return un, tr, nil
}

func runEndToEnd(dir, workload string, seed uint64, d time.Duration) (result, error) {
	un, _, err := runReps(dir, workload, seed, reps, d/reps, func(int) bool { return false })
	if err != nil {
		return result{}, err
	}
	p := pool(un)
	res := result{samples: map[string]int{"lat": len(p.unit)}}
	res.count(p)
	for _, r := range un {
		res.reps = append(res.reps, summarize(r))
	}
	res.Metrics = endToEnd(res.reps)
	return res, nil
}

// runLayerMap is the traced run of workload. Untraced and traced reps
// alternate, so drift in the host's speed falls on both and leaves the
// tracing overhead. Spans are written out at the end.
func runLayerMap(dir, workload string, seed uint64, d time.Duration) (result, error) {
	unReps, trReps, err := runReps(dir, workload, seed, 2*layerReps, d/(2*layerReps),
		func(i int) bool { return i%2 == 1 })
	if err != nil {
		return result{}, err
	}
	un, tr := pool(unReps), pool(trReps)
	var res result
	res.count(un)
	res.count(tr)
	lanes := append(tr.lanes[:len(tr.lanes):len(tr.lanes)], tr.exec...)
	ph := &phases{untraced: un, traced: tr, lt: collectLayers(lanes)}
	printBreakdown(os.Stderr, workload, ph)
	res.Metrics = perLayer(ph)
	res.samples = map[string]int{}
	for c, xs := range un.class {
		res.samples["op."+classNames[c]] = len(xs)
	}
	spans := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.tsv", workload, seed))
	if err := writeSpans(spans, lanes); err != nil {
		return result{}, err
	}
	return res, nil
}
