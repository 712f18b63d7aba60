package main

import (
	"fmt"
	"io"
	"math"
	"slices"

	"upcxx/internal/obs"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pooled gathers a phase's reps: samples and spans pooled over reps and
// ranks, counts and counters summed.
type pooled struct {
	wall        int64 // ns of timed loop, summed over reps
	class       [numClasses][]float64
	unit        []float64
	rpcReq      []float64
	rpcReply    []float64
	queue       []float64
	lanes       [][]span // initiating goroutines' spans
	exec        [][]span // task bodies
	laneWall    int64    // ns of timed loop on goroutines that recorded a lane
	ops, rounds int64
	attempted   int64
	failed      int64
	errors      []string
	c           counters
}

func pool(reps []rep) *pooled {
	p := &pooled{}
	for _, r := range reps {
		var wall int64
		for _, rr := range r.ranks {
			wall = max(wall, rr.Elapsed)
			for c := range p.class {
				p.class[c] = append(p.class[c], rr.Class[c]...)
			}
			p.unit = append(p.unit, rr.Unit...)
			p.rpcReq = append(p.rpcReq, rr.RPCReq...)
			p.rpcReply = append(p.rpcReply, rr.RPCReply...)
			p.queue = append(p.queue, rr.Queue...)
			p.lanes = append(p.lanes, rr.Lanes...)
			if rr.Exec != nil {
				p.exec = append(p.exec, rr.Exec)
			}
			if len(rr.Lanes) > 0 {
				p.laneWall += rr.Elapsed
			}
			p.ops += rr.Ops
			p.rounds += rr.Rounds
			p.attempted += rr.Attempted
			p.failed += rr.Failed
			p.errors = append(p.errors, rr.Errors...)
			p.c.add(rr.Counters)
		}
		p.wall += wall
	}
	return p
}

// rate is the phase's completed ops per second of timed loop, summed
// over ranks.
func (p *pooled) rate() float64 { return ratio(float64(p.ops), float64(p.wall)/1e9) }

// repSummary is one rep's end-to-end values.
type repSummary struct {
	SetupS float64 `json:"setup_s"`
	OpsS   float64 `json:"ops_s"`
	P50US  float64 `json:"lat_p50_us"`
	P90US  float64 `json:"lat_p90_us"`
}

func summarize(r rep) repSummary {
	p := pool([]rep{r})
	return repSummary{r.setup, p.rate(), percentile(p.unit, 0.50), percentile(p.unit, 0.90)}
}

// endToEnd computes the end-to-end metrics of an untraced run. Each is the
// median over the reps of that rep's value, so the few reps a burst of
// host noise lands on move none of them.
func endToEnd(reps []repSummary) map[string]metric {
	col := func(f func(repSummary) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	return map[string]metric{
		"setup_s":    {col(func(r repSummary) float64 { return r.SetupS }), "s"},
		"ops_s":      {col(func(r repSummary) float64 { return r.OpsS }), "1/s"},
		"lat_p50_us": {col(func(r repSummary) float64 { return r.P50US }), "us"},
		"lat_p90_us": {col(func(r repSummary) float64 { return r.P90US }), "us"},
	}
}

// layerMetric is one per-layer metric. A metric of a layer the run's
// workload does not reach has no data and reads 0; README.md lists the
// workload each one is meant for.
type layerMetric struct {
	name, unit string
	value      func(ph *phases) float64
}

// phases holds one traced run: its untraced and traced phases.
type phases struct {
	untraced, traced *pooled
	lt               layerTimes
}

func p50(xs []float64) float64 { return percentile(slices.Clone(xs), 0.50) }

// layerMetrics is the per-layer set, in report order.
var layerMetrics = []layerMetric{
	{"core.inject_us", "us", func(ph *phases) float64 { return p50(ph.lt.dur[spCoreInject]) }},
	{"core.wait_us", "us", func(ph *phases) float64 { return p50(ph.lt.dur[spCoreWait]) }},
	{"core.rpc_req_us", "us", func(ph *phases) float64 { return p50(ph.traced.rpcReq) }},
	{"core.rpc_reply_us", "us", func(ph *phases) float64 { return p50(ph.traced.rpcReply) }},
	{"core.progress_useful_frac", "frac", func(ph *phases) float64 {
		c := ph.traced.c
		return 1 - ratio(float64(c.EmptyPasses), float64(c.Passes))
	}},
	{"core.doorbell_rings_per_op", "1/op", func(ph *phases) float64 { return perOp(ph, ph.traced.c.Rings) }},
	{"core.wakeups_per_op", "1/op", func(ph *phases) float64 { return perOp(ph, ph.traced.c.Wakeups) }},
	// A frame leaves either as a ring record (the shm fast path) or on the
	// socket (FramesOut); only socket frames count toward BytesOut.
	{"gasnet.frames_per_op", "1/op", func(ph *phases) float64 {
		return perOp(ph, ph.traced.c.RingRecords+ph.traced.c.Frames)
	}},
	{"gasnet.bytes_per_op", "B/op", func(ph *phases) float64 { return perOp(ph, ph.traced.c.Bytes) }},
	{"gasnet.ring_fastpath_frac", "frac", func(ph *phases) float64 {
		c := ph.traced.c
		return ratio(float64(c.RingRecords), float64(c.RingRecords+c.Frames))
	}},
	{"gasnet.doorbells_per_frame", "1/frame", func(ph *phases) float64 {
		return ratio(float64(ph.traced.c.RingDoorbells), float64(ph.traced.c.RingRecords))
	}},
	{"dht.insert_us", "us", func(ph *phases) float64 { return p50(ph.lt.dur[spDHTInsert]) }},
	{"dht.flush_us", "us", func(ph *phases) float64 { return p50(ph.lt.dur[spDHTFlush]) }},
	{"dht.inserts_per_msg", "1/msg", func(ph *phases) float64 {
		return ratio(float64(len(ph.lt.dur[spDHTInsert])), float64(ph.traced.c.WireMsgs))
	}},
	{"task.spawn_us", "us", func(ph *phases) float64 { return p50(ph.lt.dur[spTaskSpawn]) }},
	{"task.finish_us", "us", func(ph *phases) float64 { return p50(ph.lt.dur[spTaskFinish]) }},
	{"task.queue_wait_us", "us", func(ph *phases) float64 { return p50(ph.traced.queue) }},
	{"task.exec_us", "us", func(ph *phases) float64 { return p50(ph.lt.dur[spTaskExec]) }},
	{"task.stolen_frac", "frac", func(ph *phases) float64 {
		t := ph.traced.c.Tasks
		return ratio(float64(t[obs.TaskStolen]), float64(t[obs.TaskExecuted]))
	}},
	{"task.steal_success_frac", "frac", func(ph *phases) float64 {
		t := ph.traced.c.Tasks
		return ratio(float64(t[obs.TaskStealReqs])-float64(t[obs.TaskStealFails]), float64(t[obs.TaskStealReqs]))
	}},
	{"task.detect_rounds_per_finish", "1/finish", func(ph *phases) float64 {
		// Every rank counts each detector wave it takes part in.
		return ratio(float64(ph.traced.c.Tasks[obs.TaskDetectRounds]), float64(2*ph.traced.rounds))
	}},
	{"bench.self_us", "us/op", func(ph *phases) float64 {
		self := 0.0
		for _, n := range []spanName{spBenchOp, spBenchRound} {
			self += sum(ph.lt.self[n])
		}
		return ratio(self, float64(ph.traced.ops))
	}},
	{"obs.trace_overhead_frac", "frac", func(ph *phases) float64 {
		return 1 - ratio(ph.traced.rate(), ph.untraced.rate())
	}},
	{"trace.residual_frac", "frac", func(ph *phases) float64 {
		return 1 - ratio(float64(rootTime(ph.traced.lanes)), float64(ph.traced.laneWall))
	}},
	{"op.put_p50_us", "us", func(ph *phases) float64 { return p50(ph.untraced.class[classPut]) }},
	{"op.get_p50_us", "us", func(ph *phases) float64 { return p50(ph.untraced.class[classGet]) }},
	{"op.amo_p50_us", "us", func(ph *phases) float64 { return p50(ph.untraced.class[classAMO]) }},
	{"op.rpc_p50_us", "us", func(ph *phases) float64 { return p50(ph.untraced.class[classRPC]) }},
	{"op.p99_us", "us", func(ph *phases) float64 { return percentile(slices.Concat(ph.untraced.class[:]...), 0.99) }},
}

func perOp(ph *phases, n uint64) float64 { return ratio(float64(n), float64(ph.traced.ops)) }

// perLayer computes every per-layer metric from the traced run's phases.
func perLayer(ph *phases) map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		v := m.value(ph)
		if math.IsNaN(v) {
			v = 0
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}

// printBreakdown writes the traced op time of a workload split into the
// self time of each layer span, plus the residual the spans leave
// uncovered, per op.
func printBreakdown(w io.Writer, workload string, ph *phases) {
	ops := float64(ph.traced.ops)
	wall := us(ph.traced.laneWall)
	fmt.Fprintf(w, "%s: traced time per op on the initiating goroutines, by span self time (%d ops)\n", workload, ph.traced.ops)
	covered := 0.0
	for n := spanName(0); n < numSpanNames; n++ {
		if n == spTaskExec || len(ph.lt.dur[n]) == 0 {
			continue
		}
		s := sum(ph.lt.self[n])
		covered += s
		fmt.Fprintf(w, "  %-12s %10.3f us/op  (%d spans)\n", spanNames[n], ratio(s, ops), len(ph.lt.dur[n]))
	}
	fmt.Fprintf(w, "  %-12s %10.3f us/op\n", "residual", ratio(wall-covered, ops))
	fmt.Fprintf(w, "  %-12s %10.3f us/op\n", "total", ratio(wall, ops))
}
