package main

// shm-pair: two OS-process ranks on the shm conduit, both cycling
// blocking put, get, fetch-add and RPC echo at each other. It is the only
// workload that crosses a real wire: the gasnet shm transport and the
// core inject/Wait path do almost all the work. Both ranks initiate,
// because a lone initiator against a parked passive target has a heavy,
// run-to-run unsteady tail.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"time"

	core "upcxx/internal/core"
)

// echoArg and echoReply carry the RPC echo: the body returns its argument
// together with host wall-clock stamps of its start and end, which split
// the round trip into request and reply legs in traced runs.
type echoArg struct{ X uint64 }

type echoReply struct {
	X      uint64
	T0, T1 int64
}

func echoBody(_ *core.Rank, a echoArg) echoReply {
	t0 := time.Now().UnixNano()
	return echoReply{X: a.X, T0: t0, T1: time.Now().UnixNano()}
}

func init() { core.RegisterRPC(echoBody) }

// shmWarmCycles run before timing, so connections, rings and caches are
// warm when the first timed op starts.
const shmWarmCycles = 200

// runShmPair launches one 2-process world, which sets up, runs its timed
// loop for slice and writes each rank's result into dir.
func runShmPair(dir string, seed uint64, repIdx int, slice time.Duration, traced bool) (rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return rep{}, fmt.Errorf("shm-pair: %w", err)
	}
	boot := filepath.Join(dir, fmt.Sprintf("boot-%d-%d", os.Getpid(), repIdx))
	defer os.RemoveAll(boot)
	args := []string{"-child", "shm-pair", "-seed", strconv.FormatUint(seed, 10),
		"-rep", strconv.Itoa(repIdx), "-slice", slice.String(), "-trace", boolArg(traced), "-out", boot}
	start := time.Now()
	code := core.LaunchWorld(2, "shm", boot, exe, args, nil)
	out := rep{ranks: make([]rankResult, 2)}
	for r := range out.ranks {
		res := &out.ranks[r]
		if err := readGob(filepath.Join(boot, fmt.Sprintf("rank%d.gob", r)), res); err != nil {
			*res = rankResult{Rank: r, Attempted: 1}
			res.fail("rank %d left no result (job exit code %d): %v", r, code, err)
			continue
		}
		out.setup = max(out.setup, float64(res.ReadyWall-start.UnixNano())/1e9)
	}
	if code != 0 && out.ranks[0].Failed+out.ranks[1].Failed == 0 {
		out.ranks[0].Attempted++
		out.ranks[0].fail("shm-pair job exited with code %d", code)
	}
	return out, nil
}

func boolArg(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// shmPairChild is the body of one rank process. It returns the process
// exit code. Failed checks travel in the result file, so the process
// exits 0 whenever it wrote one: a non-zero exit would make the launcher
// kill the other rank before it writes its own.
func shmPairChild(seed uint64, repIdx int, slice time.Duration, traced bool, out string) int {
	w := core.NewWorldDist(core.Config{SegmentSize: 1 << 20, Stats: traced, WaitTimeout: waitTimeout})
	var res rankResult
	res.guard("shm-pair world", func() {
		w.Run(func(rk *core.Rank) { shmPairRank(rk, seed, repIdx, slice, traced, &res) })
	})
	if err := writeGob(filepath.Join(out, fmt.Sprintf("rank%d.gob", res.Rank)), &res); err != nil {
		fmt.Fprintln(os.Stderr, "shm-pair:", err)
		return 1
	}
	if res.Failed == 0 {
		w.Close()
	}
	return 0
}

func shmPairRank(rk *core.Rank, seed uint64, repIdx int, slice time.Duration, traced bool, res *rankResult) {
	me := rk.Me()
	res.Rank = int(me)
	if rk.N() != 2 {
		res.fail("shm-pair needs 2 ranks, got %d", rk.N())
		return
	}
	peer := 1 - me
	// slots[s] is written only by rank s and ctrs[s] fetch-added only by
	// rank s, so each rank can predict what its gets and AMOs return.
	slots := core.MustNewArray[uint64](rk, 2)
	ctrs := core.MustNewArray[uint64](rk, 2)
	obj := core.NewDistObject(rk, [2]core.GPtr[uint64]{slots, ctrs})
	rk.Barrier()
	remote := core.FetchDist[[2]core.GPtr[uint64]](rk, obj.ID(), peer).Wait()
	slot, ctr := remote[0].Add(int(me)), remote[1].Add(int(me))
	amo := core.NewAtomicU64(rk)
	rng := rand.New(rand.NewPCG(seed, uint64(me)<<32|uint64(repIdx)))

	var ln *lane
	if traced {
		ln = newLane(int32(me), time.Now())
	}
	src, dst := []uint64{0}, []uint64{0}
	var nextCtr, opID uint64
	// cycle runs one put, get, fetch-add and RPC echo, checking each
	// result. With record false it only warms up.
	cycle := func(record bool) {
		var lat [numClasses]time.Duration
		v, x := rng.Uint64(), rng.Uint64()
		var reply echoReply
		var rpcInject, rpcDone int64
		for c := 0; c < numClasses; c++ {
			opID++
			t0 := time.Now()
			op := ln.begin(spBenchOp, opID)
			in := ln.begin(spCoreInject, opID)
			switch c {
			case classPut:
				src[0] = v
				f := core.RPut(rk, src, slot)
				ln.end(in)
				wt := ln.begin(spCoreWait, opID)
				f.Wait()
				ln.end(wt)
			case classGet:
				f := core.RGet(rk, slot, dst)
				ln.end(in)
				wt := ln.begin(spCoreWait, opID)
				f.Wait()
				ln.end(wt)
				if dst[0] != v {
					res.fail("get returned %#x, want the last put %#x", dst[0], v)
				}
			case classAMO:
				f := amo.FetchAdd(ctr, 1)
				ln.end(in)
				wt := ln.begin(spCoreWait, opID)
				old := f.Wait()
				ln.end(wt)
				if old != nextCtr {
					res.fail("fetch-add returned %d, want %d", old, nextCtr)
				}
				nextCtr++
			case classRPC:
				if ln != nil {
					rpcInject = ln.wallOf(ln.spans[in].Start)
				}
				f := core.RPC(rk, peer, echoBody, echoArg{X: x})
				ln.end(in)
				wt := ln.begin(spCoreWait, opID)
				reply = f.Wait()
				ln.end(wt)
				if ln != nil {
					rpcDone = ln.wallOf(ln.spans[wt].End)
				}
				if reply.X != x {
					res.fail("rpc echo returned %#x, want %#x", reply.X, x)
				}
			}
			ln.end(op)
			lat[c] = time.Since(t0)
			res.Attempted++
			if record {
				res.Ops++
			}
		}
		if !record {
			return
		}
		for c, d := range lat {
			res.Class[c] = append(res.Class[c], us(int64(d)))
			res.Unit = append(res.Unit, us(int64(d)))
		}
		if ln != nil {
			res.RPCReq = append(res.RPCReq, us(reply.T0-rpcInject))
			res.RPCReply = append(res.RPCReply, us(rpcDone-reply.T1))
		}
	}

	for i := 0; i < shmWarmCycles; i++ {
		cycle(false)
	}
	if ln != nil {
		ln.spans = ln.spans[:0]
	}
	rk.Barrier()
	res.ReadyWall = time.Now().UnixNano()
	base := readCounters(rk)
	start := time.Now()
	res.guard("shm-pair timed loop", func() {
		for time.Since(start) < slice {
			cycle(true)
		}
	})
	res.Elapsed = int64(time.Since(start))
	res.Counters = readCounters(rk).sub(base)
	if ln != nil {
		res.Lanes = [][]span{ln.spans}
	}
	rk.Barrier()
}
