package upcxx

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The goroutine-id lookup (curGID) runs on every future, Wait, Progress
// and RPC body. On amd64 it reads the calibrated id field of the
// goroutine's g (a few ns); elsewhere, or without a unique calibration
// match, it parses runtime.Stack, which costs microseconds. gidLookups
// counts those parses. These tests pin that the fast read agrees with
// the parse, that calibration falls back when it cannot find the field,
// and that the hot paths perform no parse per operation — plus the
// older properties that hold on either path: the per-goroutine state
// carries its gid (curState derives it once) and completion LPCs use
// the owned fulfill path (delivery on the owning persona's goroutine is
// guaranteed, so no check is needed).

// TestFastGIDMatchesStack: on 256 goroutines, at most 16 alive at a
// time, curGID equals the runtime.Stack id, and the ids are distinct.
func TestFastGIDMatchesStack(t *testing.T) {
	if haveGetg && gidOff < 0 {
		t.Fatalf("calibration found no unique id field in g on %s; curGID parses runtime.Stack", runtime.GOARCH)
	}
	const total, batch = 256, 16
	var mu sync.Mutex
	seen := make(map[uint64]bool, total)
	for b := 0; b < total/batch; b++ {
		var wg sync.WaitGroup
		for i := 0; i < batch; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fast, slow := curGID(), stackGID()
				if fast != slow {
					t.Errorf("curGID = %d, runtime.Stack id = %d", fast, slow)
				}
				mu.Lock()
				if seen[fast] {
					t.Errorf("goroutine id %d seen twice", fast)
				}
				seen[fast] = true
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
}

// TestGIDCalibrateFallback: calibrate accepts only a single word that
// matches every probe's id, over enough probes with distinct ids; any
// other input yields offset -1, with which readGID parses runtime.Stack.
func TestGIDCalibrateFallback(t *testing.T) {
	probes := func(word func(i, w int) uint64) []gidProbe {
		ps := make([]gidProbe, 1+gidFresh)
		for i := range ps {
			ps[i].id = uint64(100 + i)
			for w := range ps[i].words {
				ps[i].words[w] = word(i, w)
			}
		}
		return ps
	}
	unique := probes(func(i, w int) uint64 {
		if w == 5 {
			return uint64(100 + i)
		}
		return uint64(w)
	})
	if off, ok := calibrate(unique); !ok || off != 40 {
		t.Errorf("unique match at word 5: calibrate = %d, %v; want 40, true", off, ok)
	}
	for _, tc := range []struct {
		name   string
		probes []gidProbe
	}{
		{"no matching word", probes(func(i, w int) uint64 { return uint64(w) })},
		{"two matching words", probes(func(i, w int) uint64 {
			if w == 5 || w == 9 {
				return uint64(100 + i)
			}
			return 0
		})},
		{"match on only some probes", probes(func(i, w int) uint64 {
			if w == 5 && i > 0 {
				return uint64(100 + i)
			}
			return 0
		})},
		{"too few probes", unique[:gidFresh]},
		{"repeated ids", func() []gidProbe {
			ps := append([]gidProbe(nil), unique...)
			ps[1] = ps[0]
			return ps
		}()},
	} {
		off, ok := calibrate(tc.probes)
		if ok || off != -1 {
			t.Errorf("%s: calibrate = %d, %v; want -1, false", tc.name, off, ok)
		}
		start := gidLookups.Load()
		if got, want := readGID(off), stackGID(); got != want {
			t.Errorf("%s: fallback read %d, runtime.Stack id %d", tc.name, got, want)
		}
		if n := gidLookups.Load() - start; n != 2 {
			t.Errorf("%s: fallback read made %d stack parses with the check's own, want 2", tc.name, n)
		}
	}
}

// TestGIDLookupsZeroPerOp: with the calibrated read, the master
// persona's blocking put+Wait and RPC round trip parse runtime.Stack
// zero times per operation.
func TestGIDLookupsZeroPerOp(t *testing.T) {
	if gidOff < 0 {
		t.Skipf("no calibrated goroutine id on %s; curGID parses runtime.Stack", runtime.GOARCH)
	}
	const K = 256
	Run(2, func(rk *Rank) {
		peer := (rk.Me() + 1) % rk.N()
		dst := MustNewArray[uint64](rk, 8)
		src := make([]uint64, 8)
		RPut(rk, src, dst).Wait()
		rk.Barrier()
		start := gidLookups.Load()
		for i := 0; i < K; i++ {
			RPut(rk, src, dst).Wait()
		}
		for i := 0; i < K; i++ {
			if got := RPC(rk, peer, func(_ *Rank, x int) int { return x + 1 }, i).Wait(); got != i+1 {
				t.Errorf("RPC echo returned %d, want %d", got, i+1)
			}
		}
		if n := gidLookups.Load() - start; n != 0 {
			t.Errorf("%d put+Wait and %d RPC round trips made %d runtime.Stack parses, want 0", K, K, n)
		}
		rk.Barrier()
	})
}

// TestGIDOffDrainExecBodyQueues: execBody called off an AM drain — here
// by a goroutine started inside an RPC body while the master persona's
// goroutine is draining — must not run inline on the calling goroutine,
// even though the master persona's holder is mid-drain. It is delivered
// to the master persona and runs on its goroutine.
func TestGIDOffDrainExecBodyQueues(t *testing.T) {
	var done, inline, onMaster atomic.Bool
	Run(2, func(rk *Rank) {
		if rk.Me() == 1 {
			RPCFF(rk, 0, func(trk *Rank, _ int) {
				master := trk.MasterPersona().holder.Load()
				called := make(chan struct{})
				go func() {
					defer close(called)
					off := curGID()
					trk.execBody(func() {
						inline.Store(curGID() == off)
						onMaster.Store(curGID() == master)
						done.Store(true)
					})
				}()
				<-called
			}, 0)
		} else {
			for !done.Load() {
				rk.ProgressWait(time.Millisecond)
			}
			if inline.Load() {
				t.Error("off-drain execBody ran inline on the calling goroutine")
			}
			if !onMaster.Load() {
				t.Error("off-drain execBody did not run on the master persona's goroutine")
			}
		}
		rk.Barrier()
	})
}

// TestGIDLookupsCachedFulfill: a flood of K puts must cost about one
// lookup per op (the initiation-side persona resolution), not the two to
// three a per-completion re-derivation would add.
func TestGIDLookupsCachedFulfill(t *testing.T) {
	const K = 512
	Run(1, func(rk *Rank) {
		dst := MustNewArray[uint64](rk, 8)
		src := make([]uint64, 8)
		RPut(rk, src, dst).Wait() // warm the persona state
		start := gidLookups.Load()
		p := NewPromise[Unit](rk)
		for i := 0; i < K; i++ {
			RPutPromise(rk, src, dst, p)
		}
		p.Finalize().Wait()
		delta := gidLookups.Load() - start
		// Initiation resolves the current persona once per op; the
		// completion side (conduit callback → persona LPC → owned
		// fulfill) must add none. Allow constant slack for the wait loop.
		if delta > K+K/4+64 {
			t.Errorf("%d puts cost %d gid lookups; completion path is re-deriving the id", K, delta)
		}
	})
}

// TestGIDLookupsCachedExecBody: executing K incoming RPCs in AM drains
// must not parse the harvester's id per message.
func TestGIDLookupsCachedExecBody(t *testing.T) {
	const K = 512
	var hits atomic.Int64
	Run(2, func(rk *Rank) {
		rk.Barrier()
		start := gidLookups.Load()
		if rk.Me() == 0 {
			for i := 0; i < K; i++ {
				RPCFF(rk, 1, func(trk *Rank, _ int) { hits.Add(1) }, i)
			}
		}
		// Spin with the goroutine state hoisted, as Future.Wait does —
		// the public Progress() entry point resolves it once per call by
		// design, which is what this test must not conflate with the
		// per-message execBody cost.
		gs := curState()
		for hits.Load() < K {
			rk.progressWith(gs)
		}
		rk.Barrier()
		delta := gidLookups.Load() - start
		// Neither side resolves a persona per fire-and-forget RPC; the
		// whole exchange should cost a small constant number of lookups
		// (barrier machinery, default persona binding), far below K.
		if delta > K/4+64 {
			t.Errorf("%d RPCs cost %d gid lookups; execBody is re-deriving the id", K, delta)
		}
	})
}

// BenchmarkFulfillGIDLookups reports the lookups-per-op of the put
// completion path alongside its wall time (gidlookups/op should sit at
// ~1.0: initiation only).
func BenchmarkFulfillGIDLookups(b *testing.B) {
	w := NewWorld(Config{Ranks: 1, SegmentSize: 1 << 20})
	defer w.Close()
	w.Run(func(rk *Rank) {
		dst := MustNewArray[uint64](rk, 8)
		src := make([]uint64, 8)
		RPut(rk, src, dst).Wait()
		start := gidLookups.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			RPut(rk, src, dst).Wait()
		}
		b.StopTimer()
		b.ReportMetric(float64(gidLookups.Load()-start)/float64(b.N), "gidlookups/op")
	})
}

// BenchmarkCurGID is one goroutine-id read on the calibrated path (the
// stack parse where calibration is unavailable).
func BenchmarkCurGID(b *testing.B) {
	for b.Loop() {
		curGID()
	}
}

// BenchmarkStackGID is the fallback: one runtime.Stack parse.
func BenchmarkStackGID(b *testing.B) {
	for b.Loop() {
		stackGID()
	}
}
