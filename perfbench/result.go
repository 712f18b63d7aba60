package main

import (
	"encoding/gob"
	"fmt"
	"os"
	"time"

	core "upcxx/internal/core"
	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
)

// Op classes of shm-pair, in cycle order.
const (
	classPut = iota
	classGet
	classAMO
	classRPC
	numClasses
)

var classNames = [numClasses]string{"put", "get", "amo", "rpc"}

// waitTimeout bounds every Future.Wait, so a hung peer fails the run
// well inside the benchmark's time limit instead of stalling it.
const waitTimeout = 20 * time.Second

// rankResult is what one rank measured in one repetition of a workload.
// It crosses a process boundary on shm-pair, so every field is exported.
type rankResult struct {
	Rank      int
	ReadyWall int64 // Unix ns at which set-up ended and the first timed op was next
	Elapsed   int64 // ns spent in the timed loop
	Ops       int64 // operations completed in the timed loop
	Attempted int64 // operations and correctness checks attempted
	Failed    int64 // of those, the ones that failed
	Errors    []string

	Class    [numClasses][]float64 // shm-pair: per-class latency, µs
	Unit     []float64             // latency of the workload's blocking unit (op or round), µs
	RPCReq   []float64             // shm-pair traced: inject start → echo body start, µs
	RPCReply []float64             // shm-pair traced: echo body end → Wait return, µs
	Queue    []float64             // task-drain traced: spawn → body start, µs
	Rounds   int64                 // dht-batch, task-drain: rounds in the timed loop

	Lanes    [][]span // the initiating goroutine's nested spans
	Exec     []span   // task-drain traced: task bodies, on whichever goroutine ran them
	Counters counters // moved by the timed loop; obs ones in traced runs only
}

// counters are the program's own counters a workload reads through its
// public accessors: Rank.Stats (obs, with Config.Stats on) and
// Network.ConduitInfo (the real transport's wire counters).
type counters struct {
	Passes, EmptyPasses, Wakeups, Rings uint64
	WireMsgs                            uint64
	Tasks                               [obs.NumTaskStats]uint64
	Frames, Bytes                       uint64
	RingRecords, RingDoorbells          uint64
}

func countersOf(s obs.Snapshot, ci gasnet.ConduitInfo) counters {
	c := counters{
		Passes: s.ProgressPasses, EmptyPasses: s.EmptyPasses,
		Wakeups: s.Wakeups, Rings: s.DoorbellRings,
		Frames: ci.FramesOut, Bytes: ci.BytesOut,
		RingRecords: ci.RingRecords, RingDoorbells: ci.RingDoorbells,
	}
	for _, pw := range s.Wire {
		c.WireMsgs += pw.TxMsgs
	}
	copy(c.Tasks[:], s.Tasks)
	return c
}

// readCounters reads this rank's counters (its process's conduit on a
// real transport).
func readCounters(rk *core.Rank) counters {
	return countersOf(rk.Stats(), rk.World().Network().ConduitInfo())
}

// add folds o into c; sub returns c - b.
func (c *counters) add(o counters) { c.apply(o, 1) }

func (c counters) sub(b counters) counters {
	c.apply(b, ^uint64(0))
	return c
}

// apply adds sign*o to c field by field, sign being 1 or -1 in two's
// complement.
func (c *counters) apply(o counters, sign uint64) {
	c.Passes += sign * o.Passes
	c.EmptyPasses += sign * o.EmptyPasses
	c.Wakeups += sign * o.Wakeups
	c.Rings += sign * o.Rings
	c.WireMsgs += sign * o.WireMsgs
	for i := range c.Tasks {
		c.Tasks[i] += sign * o.Tasks[i]
	}
	c.Frames += sign * o.Frames
	c.Bytes += sign * o.Bytes
	c.RingRecords += sign * o.RingRecords
	c.RingDoorbells += sign * o.RingDoorbells
}

// fail records a failed op or check.
func (r *rankResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// guard runs fn and turns a panic (ErrPeerLost, a Wait timeout) into one
// failed op, so a broken world is counted instead of crashing the run.
func (r *rankResult) guard(what string, fn func()) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			r.Attempted++
			r.fail("%s: %v", what, p)
			ok = false
		}
	}()
	fn()
	return true
}

// rep is one set-up plus timed loop of a workload.
type rep struct {
	setup float64 // s from the start of set-up to the first timed op
	ranks []rankResult
}

func writeGob(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readGob(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return gob.NewDecoder(f).Decode(v)
}

// mix64 is the splitmix64 finalizer. It is a bijection on uint64, so
// distinct inputs give distinct keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
