package main

// task-drain: two in-process ranks with one task worker each. Every task
// is spawned at rank 0 with a small deterministic CPU grain, and rank 1
// gets work only by stealing; each round closes with Finish on both
// ranks. It is the only workload for internal/task (deque, steal
// protocol, termination detector) and for the core allreduce waves behind
// Finish.

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	core "upcxx/internal/core"
	"upcxx/internal/task"
)

const (
	drainTasks = 128 // tasks spawned per round
	drainGrain = 256 // mixing steps per task body
	// drainWarmRounds is the untimed rounds before the first timed one.
	// One round's time varies widely (its p90 is about 3× its p50), so
	// set-up runs enough of them for their sum, most of setup_s, to be
	// steady from one rep to the next.
	drainWarmRounds = 32
)

// grainArg is one task's input; Spawn is the spawn time on the rank-0
// lane clock in traced runs, for the queue-wait leg.
type grainArg struct {
	X     uint64
	Spawn int64
}

// grain is the task body's work and the oracle's: a fixed number of
// mixing steps.
func grain(x uint64) uint64 {
	for i := uint64(0); i < drainGrain; i++ {
		x = mix64(x + i)
	}
	return x
}

// drain is what task bodies report into. Task bodies are registered
// functions that receive only the rank, so this is package state; one
// task-drain world runs at a time and runTaskDrain resets it.
var drain struct {
	sum, count atomic.Uint64
	exec       *sharedLane // traced runs only
	mu         sync.Mutex
	queue      []float64 // spawn → body start, µs
}

func grainTask(_ *core.Rank, a grainArg) {
	ex := drain.exec
	var t0 int64
	if ex != nil {
		t0 = ex.l.now()
	}
	drain.sum.Add(grain(a.X))
	drain.count.Add(1)
	if ex != nil {
		ex.add(spTaskExec, a.X, t0, ex.l.now())
		drain.mu.Lock()
		drain.queue = append(drain.queue, us(t0-a.Spawn))
		drain.mu.Unlock()
	}
}

func init() { task.RegisterFF(grainTask) }

func runTaskDrain(_ string, seed uint64, _ int, slice time.Duration, traced bool) (rep, error) {
	drain.sum.Store(0)
	drain.count.Store(0)
	drain.queue = nil
	drain.exec = nil
	epoch := time.Now()
	if traced {
		drain.exec = &sharedLane{l: newLane(2, epoch)}
	}
	var lastRound atomic.Int64
	lastRound.Store(-1)
	out := runInProc(traced, func(rk *core.Rank, res *rankResult) {
		me := rk.Me()
		rt := task.New(rk, task.Config{Workers: 1})
		defer rt.Stop()
		var ln *lane
		if traced && me == 0 {
			ln = newLane(0, epoch)
		}
		rng := rand.New(rand.NewPCG(seed, 0x7a5c))
		var spawned uint64
		// round runs one spawn-and-Finish round. Only rank 0 spawns; it
		// decides before its Finish whether this is the last round, and
		// rank 1 reads that decision after its own Finish of the same
		// round returns, which cannot happen before rank 0 joined it.
		round := func(k int64, record bool, last bool) error {
			root := ln.begin(spBenchRound, uint64(k))
			t0 := time.Now()
			if me == 0 {
				for j := 0; j < drainTasks; j++ {
					a := grainArg{X: rng.Uint64()}
					if ln != nil {
						a.Spawn = ln.now()
					}
					s := ln.begin(spTaskSpawn, uint64(k))
					task.AsyncAtFF(rt, 0, grainTask, a)
					ln.end(s)
				}
				spawned += drainTasks
				res.Attempted += drainTasks
				if last {
					lastRound.Store(k)
				}
			}
			s := ln.begin(spTaskFinish, uint64(k))
			err := rt.Finish()
			ln.end(s)
			ln.end(root)
			if record && me == 0 {
				res.Ops += drainTasks
				res.Rounds++
				res.Unit = append(res.Unit, us(int64(time.Since(t0))))
			}
			return err
		}
		k := int64(0)
		for ; k < drainWarmRounds; k++ {
			if err := round(k, false, false); err != nil {
				res.fail("warm-up Finish: %v", err)
				return
			}
		}
		if ln != nil {
			ln.spans = ln.spans[:0]
		}
		rk.Barrier()
		res.ReadyWall = time.Now().UnixNano()
		if traced && me == 0 {
			drain.exec.mu.Lock()
			drain.exec.l.spans = drain.exec.l.spans[:0]
			drain.exec.mu.Unlock()
			drain.mu.Lock()
			drain.queue = drain.queue[:0]
			drain.mu.Unlock()
		}
		base := readCounters(rk)
		start := time.Now()
		for ; ; k++ {
			last := me == 0 && time.Since(start) >= slice
			if err := round(k, true, last); err != nil {
				res.fail("Finish: %v", err)
				break
			}
			if last || (me == 1 && lastRound.Load() == k) {
				break
			}
		}
		res.Elapsed = int64(time.Since(start))
		res.Counters = readCounters(rk).sub(base)
		if ln != nil {
			res.Lanes = [][]span{ln.spans}
		}
		rk.Barrier()
		if me != 0 {
			return
		}
		// Every spawned task ran exactly once, and the order-independent
		// sum of their results matches a sequential run over the same
		// seeded inputs.
		res.Attempted += 2
		if n := drain.count.Load(); n != spawned {
			res.fail("tasks executed %d, spawned %d", n, spawned)
		}
		oracle := rand.New(rand.NewPCG(seed, 0x7a5c))
		var want uint64
		for i := uint64(0); i < spawned; i++ {
			want += grain(oracle.Uint64())
		}
		if got := drain.sum.Load(); got != want {
			res.fail("task checksum %#x, sequential oracle %#x", got, want)
		}
	})
	if traced {
		out.ranks[0].Exec = drain.exec.l.spans
		out.ranks[0].Queue = drain.queue
	}
	return out, nil
}
