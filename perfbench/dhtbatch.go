package main

// dht-batch: two in-process ranks, both inserting seeded distinct keys
// with 64 B values through dht.BatchInserter at a fixed batch size — the
// paper's DHT insert motif (Fig. 4) on its throughput path. core batched
// RPC, serial gather encoding and the dht store do the work; the
// zero-delay conduit does none, so this workload isolates the software
// path from the wire.

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"time"

	core "upcxx/internal/core"
	"upcxx/internal/dht"
)

const (
	dhtBatch      = 64  // inserts per FlushAll
	dhtValueBytes = 64  // bytes per value
	dhtWarmRounds = 16  // untimed rounds before the first timed one
	dhtCheckKeys  = 256 // keys per rank read back with Find after timing
)

// dhtKey is the i-th key rank me inserts. mix64 is a bijection and the
// argument is distinct for every (rank, i) with i < 2^56, so keys never
// repeat and every acked insert adds one entry.
func dhtKey(seed uint64, me core.Intrank, i uint64) uint64 {
	return mix64(seed ^ (uint64(me)<<56 | i))
}

// dhtValue fills v with the value stored under key, so a check can
// recompute what any key must hold.
func dhtValue(key uint64, v []byte) {
	for j := 0; j+8 <= len(v); j += 8 {
		binary.LittleEndian.PutUint64(v[j:], mix64(key+uint64(j)+1))
	}
}

func runDHTBatch(_ string, seed uint64, _ int, slice time.Duration, traced bool) (rep, error) {
	return runInProc(traced, func(rk *core.Rank, res *rankResult) {
		me := rk.Me()
		d := dht.New(rk, dht.RPCOnly)
		bi := d.NewBatchInserter()
		var ln *lane
		if traced {
			ln = newLane(int32(me), time.Now())
		}
		vals := make([]byte, dhtBatch*dhtValueBytes)
		var inserted uint64
		round := func(record bool) {
			rid := inserted
			root := ln.begin(spBenchRound, rid)
			t0 := time.Now()
			for j := 0; j < dhtBatch; j++ {
				key := dhtKey(seed, me, inserted)
				inserted++
				v := vals[j*dhtValueBytes : (j+1)*dhtValueBytes]
				dhtValue(key, v)
				s := ln.begin(spDHTInsert, rid)
				bi.Insert(key, v)
				ln.end(s)
			}
			done := core.NewPromise[core.Unit](rk)
			s := ln.begin(spDHTFlush, rid)
			bi.FlushAll(done)
			ln.end(s)
			s = ln.begin(spCoreWait, rid)
			done.Finalize().Wait()
			ln.end(s)
			ln.end(root)
			res.Attempted += dhtBatch
			if record {
				res.Ops += dhtBatch
				res.Rounds++
				res.Unit = append(res.Unit, us(int64(time.Since(t0))))
			}
		}
		for i := 0; i < dhtWarmRounds; i++ {
			round(false)
		}
		if ln != nil {
			ln.spans = ln.spans[:0]
		}
		rk.Barrier()
		res.ReadyWall = time.Now().UnixNano()
		base := readCounters(rk)
		start := time.Now()
		res.guard("dht-batch timed loop", func() {
			for time.Since(start) < slice {
				round(true)
			}
		})
		res.Elapsed = int64(time.Since(start))
		res.Counters = readCounters(rk).sub(base)
		if ln != nil {
			res.Lanes = [][]span{ln.spans}
		}
		rk.Barrier()

		// Read back a seeded sample of this rank's keys, then check that
		// the table holds exactly one entry per acked insert.
		pick := rand.New(rand.NewPCG(seed, 0xd47<<8|uint64(me)))
		want := make([]byte, dhtValueBytes)
		for i := 0; i < dhtCheckKeys; i++ {
			key := dhtKey(seed, me, pick.Uint64N(inserted))
			got := d.Find(key).Wait()
			dhtValue(key, want)
			res.Attempted++
			if !bytes.Equal(got, want) {
				res.fail("find(%#x) returned %x, want %x", key, got, want)
			}
		}
		tot := core.AllReduce(rk.WorldTeam(), [2]uint64{uint64(d.LocalLen()), inserted},
			func(a, b [2]uint64) [2]uint64 { return [2]uint64{a[0] + b[0], a[1] + b[1]} }).Wait()
		res.Attempted++
		if tot[0] != tot[1] {
			res.fail("ranks hold %d entries, want one per acked insert: %d", tot[0], tot[1])
		}
	}), nil
}

// runInProc runs body on every rank of a fresh 2-rank in-process world
// and returns the rep, with set-up timed from world creation to the
// latest rank's ReadyWall.
func runInProc(traced bool, body func(rk *core.Rank, res *rankResult)) rep {
	start := time.Now()
	w := core.NewWorld(core.Config{Ranks: 2, Stats: traced, WaitTimeout: waitTimeout})
	out := rep{ranks: make([]rankResult, 2)}
	w.Run(func(rk *core.Rank) {
		res := &out.ranks[rk.Me()]
		res.Rank = int(rk.Me())
		res.guard("rank body", func() { body(rk, res) })
	})
	w.Close()
	for _, r := range out.ranks {
		out.setup = max(out.setup, float64(r.ReadyWall-start.UnixNano())/1e9)
	}
	return out
}
