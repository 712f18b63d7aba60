package gasnet

import (
	"bytes"
	"testing"
	"time"

	"upcxx/internal/obs"
)

func TestDeviceSegmentRegistry(t *testing.T) {
	n := NewNetwork(Config{Ranks: 2})
	defer n.Close()
	ep := n.Endpoint(0)
	if ep.Segment().Kind() != KindHost {
		t.Fatal("host segment mis-kinded")
	}
	id := ep.AddDeviceSegment(1 << 12)
	if id != 1 || ep.DeviceSegments() != 1 {
		t.Fatalf("first device segment got id %d (%d registered)", id, ep.DeviceSegments())
	}
	if ep.SegByID(id).Kind() != KindDevice {
		t.Fatal("device segment mis-kinded")
	}
	if ep.SegByID(HostSeg) != ep.Segment() {
		t.Fatal("SegByID(0) is not the host segment")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wild device id should panic")
		}
	}()
	ep.SegByID(7)
}

// TestDeviceSegmentGrow: in-place growth keeps offsets (and therefore
// every outstanding global pointer) stable, appends the new capacity to
// the free list with coalescing, and satisfies an allocation that failed
// before growth. Growing the host segment id or a closed device segment
// faults.
func TestDeviceSegmentGrow(t *testing.T) {
	n := NewNetwork(Config{Ranks: 1})
	defer n.Close()
	ep := n.Endpoint(0)
	id := ep.AddDeviceSegment(64)
	seg := ep.SegByID(id)

	pat := make([]byte, 48)
	for i := range pat {
		pat[i] = byte(i*11 + 5)
	}
	off, err := seg.Alloc(48)
	if err != nil {
		t.Fatal(err)
	}
	copy(seg.Bytes(off, 48), pat)
	if _, err := seg.Alloc(48); err == nil {
		t.Fatal("second alloc should exhaust the 64-byte segment")
	}

	ep.GrowDeviceSegment(id, 128)
	if seg.Size() != 192 {
		t.Fatalf("grown segment size = %d, want 192", seg.Size())
	}
	// Offsets are stable: the pre-growth bytes sit where they were.
	got := seg.Bytes(off, 48)
	for i := range pat {
		if got[i] != pat[i] {
			t.Fatalf("pre-growth byte %d = %d after growth, want %d", i, got[i], pat[i])
		}
	}
	// The 16-byte tail fragment coalesced with the appended 128 bytes:
	// a 144-byte allocation fits only in the merged block.
	big, err := seg.Alloc(144)
	if err != nil {
		t.Fatalf("allocation spanning the coalesced growth failed: %v", err)
	}
	if big != 48 {
		t.Fatalf("coalesced block starts at %d, want 48", big)
	}

	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", what)
			}
		}()
		fn()
	}
	mustPanic("non-positive growth", func() { seg.Grow(0) })
	mustPanic("growing the host segment id", func() { ep.GrowDeviceSegment(HostSeg, 64) })
	mustPanic("growing a wild segment id", func() { ep.GrowDeviceSegment(9, 64) })
	ep.CloseDeviceSegment(id)
	mustPanic("growing a closed segment", func() { ep.GrowDeviceSegment(id, 64) })
}

// pollDone spins ep.Poll until done flips, with a deadline.
func pollDone(t *testing.T, ep *Endpoint, done *bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !*done {
		ep.Poll()
		if time.Now().After(deadline) {
			t.Fatal("transfer never completed")
		}
	}
}

// TestKindsDMATimingFloor: a same-rank h2d put must pay at least the DMA
// engine's gap+latency; back-to-back descriptors serialize on the engine.
// Lower bounds only — upper bounds depend on OS scheduling.
func TestKindsDMATimingFloor(t *testing.T) {
	net := &LogGP{L: time.Microsecond, Gp: time.Microsecond}
	dma := &PCIeDMA{L: 30 * time.Microsecond, Gp: 20 * time.Microsecond}
	n := NewNetwork(Config{Ranks: 1, Model: net, DMA: dma})
	defer n.Close()
	ep := n.Endpoint(0)
	id := ep.AddDeviceSegment(1 << 12)
	off, _ := ep.SegByID(id).Alloc(64)

	done := false
	t0 := time.Now()
	ep.PutSeg(0, id, off, make([]byte, 64), func() { done = true }, nil)
	pollDone(t, ep, &done)
	if elapsed := time.Since(t0); elapsed < 50*time.Microsecond {
		t.Fatalf("h2d put took %v, less than DMA gap+latency (50µs)", elapsed)
	}

	// Flood: k descriptors must occupy the copy engine for k*gap.
	const k = 8
	remaining := k
	t0 = time.Now()
	for i := 0; i < k; i++ {
		ep.PutSeg(0, id, off, make([]byte, 64), func() { remaining-- }, nil)
	}
	for remaining > 0 {
		ep.Poll()
	}
	if elapsed := time.Since(t0); elapsed < k*20*time.Microsecond {
		t.Fatalf("flood of %d DMAs took %v, less than engine serialization %v",
			k, elapsed, k*20*time.Microsecond)
	}
}

// TestKindsCrossRankChargesBothEngines: a cross-rank h2d put pays the wire
// and the target DMA engine; a d2d same-rank copy pays only one on-node
// DMA (no NIC hops), so it must be cheaper than the cross-rank path under
// a model where the wire dominates.
func TestKindsCrossRankChargesBothEngines(t *testing.T) {
	net := &LogGP{L: 40 * time.Microsecond, Gp: 5 * time.Microsecond}
	dma := &PCIeDMA{L: 25 * time.Microsecond, Gp: 5 * time.Microsecond}
	n := NewNetwork(Config{Ranks: 2, RanksPerNode: 1, Model: net, DMA: dma})
	defer n.Close()
	src := n.Endpoint(0)
	tgt := n.Endpoint(1)
	id := tgt.AddDeviceSegment(1 << 12)
	off, _ := tgt.SegByID(id).Alloc(64)

	// Cross-rank h2d: wire (gap+L) + DMA (gap+L) + ack (L) at minimum.
	done := false
	t0 := time.Now()
	src.PutSeg(1, id, off, make([]byte, 64), func() { done = true }, nil)
	pollDone(t, src, &done)
	minC := (5 + 40 + 5 + 25 + 40) * time.Microsecond
	if elapsed := time.Since(t0); elapsed < minC {
		t.Fatalf("cross-rank h2d took %v, less than wire+DMA floor %v", elapsed, minC)
	}

	// Same-rank d2d: one DMA descriptor, no wire.
	id0 := src.AddDeviceSegment(1 << 12)
	id0b := src.AddDeviceSegment(1 << 12)
	a, _ := src.SegByID(id0).Alloc(64)
	b, _ := src.SegByID(id0b).Alloc(64)
	done = false
	t0 = time.Now()
	src.CopySeg(0, id0, a, 0, id0b, b, 64, func() { done = true }, nil)
	pollDone(t, src, &done)
	if elapsed := time.Since(t0); elapsed < 30*time.Microsecond {
		t.Fatalf("same-rank d2d took %v, less than its DMA floor 30µs", elapsed)
	}
	// The h2d put charged the target rank's engine; the same-rank d2d
	// copy collapsed to exactly one descriptor on the initiator's.
	if got := tgt.Stats().DMAs; got != 1 {
		t.Fatalf("expected exactly 1 DMA descriptor on rank 1, got %d", got)
	}
	if got := src.Stats().DMAs; got != 1 {
		t.Fatalf("expected exactly 1 DMA descriptor on rank 0 (collapsed d2d), got %d", got)
	}
}

// TestKindsCopySegMatrixNoDelay: byte-level correctness of every CopySeg
// shape, including a third-party initiator, on both delivery modes — the
// zero-delay conduit (the hop chain run inline) and a small-L LogGP
// engine — each with GPUDirect off and on. For every shape both modes
// must count the same per-kind DMA descriptors on every rank, deliver
// exactly one completion, and fire the remote AM only once the bytes
// are in place at the destination.
func TestKindsCopySegMatrixNoDelay(t *testing.T) {
	pat := make([]byte, 128)
	for i := range pat {
		pat[i] = byte(i*7 + 3)
	}
	type side struct {
		rank Rank
		dev  bool
	}
	cases := []struct{ src, dst side }{
		{side{0, false}, side{0, true}},  // h2d same
		{side{0, true}, side{0, false}},  // d2h same
		{side{0, true}, side{0, true}},   // d2d same
		{side{0, false}, side{0, false}}, // h2h same
		{side{0, true}, side{1, true}},   // d2d cross
		{side{0, false}, side{1, true}},  // h2d cross
		{side{1, true}, side{2, true}},   // d2d third-party
	}
	// outcome is what one copy left behind: per-rank DMA descriptor
	// counts by kind and the number of completions delivered.
	type outcome struct {
		dma         [3][obs.NumDMAKinds]uint64
		completions int
	}
	modes := []struct {
		name  string
		model Model
	}{
		{"zero-delay", nil},
		{"loggp", &LogGP{L: 2 * time.Microsecond, Gp: time.Microsecond, IntraL: time.Microsecond}},
	}
	for _, gdr := range []bool{false, true} {
		var ref []outcome
		for _, mode := range modes {
			var dma DMAModel = NoDelayDMA{GDR: gdr}
			if mode.model != nil {
				dma = &PCIeDMA{L: 2 * time.Microsecond, Gp: time.Microsecond, GDR: gdr}
			}
			ob := obs.New(3, obs.Options{})
			n := NewNetwork(Config{Ranks: 3, Model: mode.model, DMA: dma, Obs: ob})
			var outcomes []outcome
			for _, tc := range cases {
				seg := func(s side) SegID {
					if !s.dev {
						return HostSeg
					}
					return n.Endpoint(s.rank).AddDeviceSegment(1 << 12)
				}
				ss, ds := seg(tc.src), seg(tc.dst)
				so, _ := n.Endpoint(tc.src.rank).SegByID(ss).Alloc(len(pat))
				do, _ := n.Endpoint(tc.dst.rank).SegByID(ds).Alloc(len(pat))
				copy(n.Endpoint(tc.src.rank).SegByID(ss).Bytes(so, len(pat)), pat)
				var before [3][obs.NumDMAKinds]uint64
				for r := range before {
					before[r] = ob.Rank(r).Snapshot().DMA
				}
				ep, dstEP := n.Endpoint(0), n.Endpoint(tc.dst.rank)
				got := dstEP.SegByID(ds).Bytes(do, len(pat))
				fired := false
				h := n.RegisterAM(func(*Endpoint, Rank, []byte, any) {
					if !bytes.Equal(got, pat) {
						t.Errorf("%s gdr=%v copy %+v: remote AM fired before the bytes landed", mode.name, gdr, tc)
					}
					fired = true
				})
				completions := 0
				ep.CopySeg(tc.src.rank, ss, so, tc.dst.rank, ds, do, len(pat), func() { completions++ }, &RemoteAM{Handler: h})
				deadline := time.Now().Add(10 * time.Second)
				for completions == 0 || !fired {
					ep.Poll()
					dstEP.Poll()
					if time.Now().After(deadline) {
						t.Fatalf("%s gdr=%v copy %+v never completed", mode.name, gdr, tc)
					}
				}
				for i := range pat {
					if got[i] != pat[i] {
						t.Fatalf("copy %+v byte %d = %d, want %d", tc, i, got[i], pat[i])
					}
				}
				oc := outcome{completions: completions}
				for r := range oc.dma {
					after := ob.Rank(r).Snapshot().DMA
					for k := range after {
						oc.dma[r][k] = after[k] - before[r][k]
					}
				}
				outcomes = append(outcomes, oc)
			}
			n.Close()
			for i, oc := range outcomes {
				if oc.completions != 1 {
					t.Errorf("%s gdr=%v copy %+v: %d completions, want 1", mode.name, gdr, cases[i], oc.completions)
				}
				if ref != nil && oc != ref[i] {
					t.Errorf("gdr=%v copy %+v: %s left %+v, %s left %+v",
						gdr, cases[i], modes[0].name, ref[i], mode.name, oc)
				}
			}
			if ref == nil {
				ref = outcomes
			}
		}
	}
}

// TestKindsHostRangeFaultsOnCaller: under a timing model, a host put,
// get or AMO with an out-of-range offset, and an AMO with an unknown
// opcode, panic on the initiating goroutine before anything is injected
// — a fault inside the delivery engine's goroutine would kill the
// process. The engine keeps delivering afterwards.
func TestKindsHostRangeFaultsOnCaller(t *testing.T) {
	const size = 1 << 12
	n := NewNetwork(Config{Ranks: 2, SegmentSize: size, Model: &LogGP{L: time.Microsecond, Gp: time.Microsecond}})
	defer n.Close()
	ep := n.Endpoint(0)
	ops := []struct {
		name string
		op   func()
	}{
		{"put", func() { ep.Put(1, size-4, make([]byte, 8), nil) }},
		{"get", func() { ep.Get(1, size, make([]byte, 8), nil) }},
		{"amo", func() { ep.AMO(1, size-4, AMOAdd, 1, 0, nil) }},
		{"amo opcode", func() { ep.AMO(1, 0, AMOCompSwap+1, 0, 0, nil) }},
	}
	for _, tc := range ops {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a bad request did not panic on the calling goroutine", tc.name)
				}
			}()
			tc.op()
		}()
	}
	done := false
	ep.Put(1, 0, make([]byte, 8), func() { done = true })
	pollDone(t, ep, &done)
}

// TestKindsNoDelayDMAInstant: on a zero-delay network device hops are
// instantaneous whatever Config.DMA costs, so device puts against a DMA
// model with a 4 ms kickoff latency complete in well under 4 ms.
func TestKindsNoDelayDMAInstant(t *testing.T) {
	const lat = 4 * time.Millisecond
	n := NewNetwork(Config{Ranks: 2, DMA: &PCIeDMA{L: lat}})
	defer n.Close()
	ep := n.Endpoint(0)
	t0 := time.Now()
	for _, dst := range []Rank{0, 1} {
		id := n.Endpoint(dst).AddDeviceSegment(1 << 12)
		off, _ := n.Endpoint(dst).SegByID(id).Alloc(64)
		done := false
		ep.PutSeg(dst, id, off, make([]byte, 64), func() { done = true }, nil)
		pollDone(t, ep, &done)
	}
	if elapsed := time.Since(t0); elapsed >= lat {
		t.Fatalf("two zero-delay device puts took %v; the DMA model's %v latency was charged", elapsed, lat)
	}
}
