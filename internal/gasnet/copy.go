package gasnet

import (
	"time"

	"upcxx/internal/obs"
)

// Kind-aware transfer paths. Transfers whose source or destination is a
// device segment route through the owning rank's simulated DMA engine
// (engine.injectDMAAt): a host↔device hop occupies the copy engine at
// DMAModel cost, while any inter-rank leg still crosses the NIC at network
// cost. The hop structure follows Choi et al. (arXiv:2102.12416):
//
//	put  host → remote device:  wire (NIC) → target DMA h2d
//	get  remote device → host:  source DMA d2h → wire (NIC)
//	copy device → device, one rank:  a single on-node d2d DMA
//	copy device → device, two ranks: d2h DMA → wire → h2d DMA
//
// When the DMA model is GPUDirect-capable (DMAModel.GPUDirect, a job-wide
// property of the simulated conduit), every cross-rank leg touching device
// memory drops its staging hops: the NIC reads the source device segment
// and writes the destination device segment directly, so the chains above
// collapse to a single wire hop between the endpoints — two fewer PCIe
// hops and one less host-bounce copy per fragment. Descriptor *counters*
// still record the device-memory traffic (split d2d-direct vs d2d-bounced
// for cross-rank d2d), but no copy-engine occupancy is charged and the
// wire landing becomes the last landing hop, from which remote-cx
// signaling and counted-fragment piggybacking fire.
//
// Completions are delivered to the initiating endpoint's completion queue
// exactly as for host transfers, so the runtime's persona routing applies
// unchanged. Each chain also accepts an optional RemoteAM, enqueued on the
// destination rank at the instant the final hop lands — after the h2d DMA
// for device destinations — which is what makes remote completion honest
// about device memory: the notification never races ahead of the copy
// engine.
//
// Every chain threads the initiator's obs.OpTag: each DMA hop records a
// StageDMA event at the executing rank, each wire leg a per-peer message,
// and the final copy the landing edge — so an armed trace shows the full
// hop structure above, and the DMA-kind counters (h2d/d2h/d2d) subsume
// what TraceDMA's test hook records.

// PutSeg is Put targeting an arbitrary segment of the destination rank:
// seg 0 is the host segment (identical to Put), higher ids are device
// segments reached through the target's DMA engine. The source buffer is
// captured before PutSeg returns; onAck, if non-nil, is delivered to this
// endpoint once the data is visible in the target segment. rem, if
// non-nil, is enqueued on the destination at that same instant.
func (ep *Endpoint) PutSeg(dst Rank, seg SegID, dstOff uint64, src []byte, onAck func(), rem *RemoteAM) {
	ep.PutSegTag(dst, seg, dstOff, src, onAck, rem, obs.OpTag{})
}

// PutSegTag is PutSeg carrying the initiator's observability tag. A host
// put is the chain with no DMA hop: one wire hop whose landing is the
// last landing hop.
func (ep *Endpoint) PutSegTag(dst Rank, seg SegID, dstOff uint64, src []byte, onAck func(), rem *RemoteAM, tag obs.OpTag) {
	n := len(src)
	ep.puts.Add(1)
	ep.putBytes.Add(uint64(n))
	if t := ep.net.trans; t != nil && dst != ep.rank {
		// Device-segment puts cross the wire as frames even on shm;
		// the target counts the h2d descriptor when the data lands.
		t.put(dst, seg, dstOff, src, onAck, rem, tag)
		return
	}
	tgt := ep.net.eps[dst]
	dev := seg != HostSeg
	if dev {
		tgt.countDMA(obs.DMAH2D, n)
	}
	// Resolve eagerly: a wild device pointer or out-of-bounds range must
	// fault on the initiating goroutine, not inside the delivery engine.
	tb := tgt.SegByID(seg).Bytes(dstOff, n)
	m, dm, eng := ep.net.model, ep.net.dma, ep.net.eng
	intra := ep.net.Intra(ep.rank, dst)
	dgap, dlat := dm.Gap(n, false), dm.Latency(n, false)
	// Same-rank h2d is a pure copy-engine hop, no NIC involvement, and
	// its ack needs no wire trip back.
	selfDMA := dev && dst == ep.rank
	ackLat := m.Latency(0, intra)
	if selfDMA {
		ackLat = 0
		spinFor(dm.Overhead(n))
	} else {
		spinFor(m.Overhead(n, intra))
	}
	staged := eng.capture(src)
	tag.Hop(obs.StageCapture, ep.rank, n)

	// land: the bytes are in the target segment at time at — the remote
	// AM fires here, then the ack starts its trip back.
	land := func(at time.Time) {
		copy(tb, staged)
		tag.Landing(dst, n)
		ep.deliverRemote(dst, rem)
		if onAck != nil {
			eng.complete(at.Add(ackLat), ep, onAck)
		}
	}
	if selfDMA {
		eng.injectDMAAt(int(dst), eng.now(), dgap, dlat, func(at time.Time) {
			tag.Hop(obs.StageDMA, dst, n)
			land(at)
		})
		return
	}
	tag.WireMsg(ep.rank, dst, n)
	if !dev {
		eng.injectFrom(int(ep.rank), m.Gap(n, intra), m.Latency(n, intra), land)
		return
	}
	eng.injectFrom(int(ep.rank), m.Gap(n, intra), m.Latency(n, intra), func(at time.Time) {
		tag.Hop(obs.StageWire, dst, n)
		if ep.net.gdr {
			// GPUDirect: the NIC writes device memory as the wire hop
			// lands — no target copy-engine descriptor, no host staging
			// area. The wire landing is the last landing hop.
			land(at)
			return
		}
		// Landed in the target's host staging area; the target's copy
		// engine now moves it into device memory, then the ack returns.
		// The remote AM waits for the DMA hop too: remote completion
		// means visible *in device memory*, not merely at the NIC.
		eng.injectDMAAt(int(dst), at, dgap, dlat, func(at time.Time) {
			tag.Hop(obs.StageDMA, dst, n)
			land(at)
		})
	})
}

// GetSeg is Get reading from an arbitrary segment of the source rank.
// Device sources drain through the source rank's DMA engine before the
// payload crosses the wire.
func (ep *Endpoint) GetSeg(src Rank, seg SegID, srcOff uint64, dst []byte, onDone func()) {
	ep.GetSegTag(src, seg, srcOff, dst, onDone, obs.OpTag{})
}

// GetSegTag is GetSeg carrying the initiator's observability tag. The
// payload lands at the *initiator* (that is where a get's data becomes
// visible), so the landing edge is recorded against ep.rank.
func (ep *Endpoint) GetSegTag(src Rank, seg SegID, srcOff uint64, dst []byte, onDone func(), tag obs.OpTag) {
	n := len(dst)
	ep.gets.Add(1)
	ep.getBytes.Add(uint64(n))
	if t := ep.net.trans; t != nil && src != ep.rank {
		t.get(src, seg, srcOff, dst, onDone, tag)
		return
	}
	rem := ep.net.eps[src]
	dev := seg != HostSeg
	if dev {
		rem.countDMA(obs.DMAD2H, n)
	}
	sb := rem.SegByID(seg).Bytes(srcOff, n)
	m, dm, eng := ep.net.model, ep.net.dma, ep.net.eng
	dgap, dlat := dm.Gap(n, false), dm.Latency(n, false)
	staged := sb

	// land: the payload is in dst.
	land := func(time.Time) {
		copy(dst, staged)
		tag.Landing(ep.rank, n)
		if onDone != nil {
			ep.enqueueComp(onDone)
		}
	}
	if dev && src == ep.rank {
		// Same-rank d2h: one copy-engine hop.
		spinFor(dm.Overhead(n))
		tag.Hop(obs.StageCapture, ep.rank, 0)
		eng.injectDMAAt(int(src), eng.now(), dgap, dlat, func(at time.Time) {
			tag.Hop(obs.StageDMA, src, n)
			land(at)
		})
		return
	}
	intra := ep.net.Intra(ep.rank, src)
	spinFor(m.Overhead(0, intra))
	tag.Hop(obs.StageCapture, ep.rank, 0)
	tag.WireMsg(ep.rank, src, 0)
	tag.WireMsg(src, ep.rank, n)
	// reply: the source NIC injects the payload at time at.
	reply := func(at time.Time) {
		staged = eng.capture(sb)
		eng.injectFromAt(int(src), at, m.Gap(n, intra), m.Latency(n, intra), land)
	}
	// The request travels to the source NIC; the reply carries the payload.
	eng.injectFrom(int(ep.rank), m.Gap(0, intra), m.Latency(0, intra), func(at time.Time) {
		tag.Hop(obs.StageWire, src, 0)
		if dev && !ep.net.gdr {
			// d2h DMA into the source's host bounce buffer first.
			eng.injectDMAAt(int(src), at, dgap, dlat, func(at time.Time) {
				tag.Hop(obs.StageDMA, src, n)
				reply(at)
			})
			return
		}
		// Host source, or (GPUDirect) the source NIC reads device memory
		// directly when it injects the reply: no d2h descriptor, no bounce.
		reply(at)
	})
}

// CopySeg copies n bytes from (srcRank, srcSeg, srcOff) to (dstRank,
// dstSeg, dstOff), initiated by this endpoint, which may be a third party
// to both sides (upcxx::copy). The hop chain is assembled from: a request
// hop when the source rank is not the initiator, a source-side d2h DMA
// when the source is device memory, a wire hop when the ranks differ, a
// destination-side h2d DMA when the destination is device memory, and an
// ack hop back to the initiator. Same-rank device→device copies collapse
// to a single on-node d2d DMA. onDone is delivered to this endpoint's
// completion queue; rem, if non-nil, is enqueued on dstRank the instant
// the final hop's bytes are in place.
func (ep *Endpoint) CopySeg(srcRank Rank, srcSeg SegID, srcOff uint64, dstRank Rank, dstSeg SegID, dstOff uint64, n int, onDone func(), rem *RemoteAM) {
	ep.CopySegTag(srcRank, srcSeg, srcOff, dstRank, dstSeg, dstOff, n, onDone, rem, obs.OpTag{})
}

// CopySegTag is CopySeg carrying the initiator's observability tag.
func (ep *Endpoint) CopySegTag(srcRank Rank, srcSeg SegID, srcOff uint64, dstRank Rank, dstSeg SegID, dstOff uint64, n int, onDone func(), rem *RemoteAM, tag obs.OpTag) {
	ep.puts.Add(1)
	ep.putBytes.Add(uint64(n))
	if t := ep.net.trans; t != nil && (srcRank != ep.rank || dstRank != ep.rank) {
		t.copySeg(srcRank, srcSeg, srcOff, dstRank, dstSeg, dstOff, n, onDone, rem, tag)
		return
	}
	srcEP, dstEP := ep.net.eps[srcRank], ep.net.eps[dstRank]
	srcDev, dstDev := srcSeg != HostSeg, dstSeg != HostSeg
	gdr := ep.net.gdr
	switch {
	case srcDev && dstDev && srcRank == dstRank:
		// Collapses to a single on-node d2d descriptor below.
		srcEP.countDMA(obs.DMAD2DDirect, n)
	case srcDev && dstDev && gdr:
		// GPUDirect cross-rank d2d: both NICs touch device memory
		// directly — device traffic on both ranks, zero host staging.
		srcEP.countDMA(obs.DMAD2DDirect, n)
		dstEP.countDMA(obs.DMAD2DDirect, n)
	case srcDev && dstDev:
		// Bounced cross-rank d2d: the d2h/h2d staging halves of one
		// device-to-device transfer, labeled as such so the split is
		// visible (byte totals match the pre-split d2h+h2d accounting).
		srcEP.countDMA(obs.DMAD2DBounced, n)
		dstEP.countDMA(obs.DMAD2DBounced, n)
	default:
		if srcDev {
			srcEP.countDMA(obs.DMAD2H, n)
		}
		if dstDev {
			dstEP.countDMA(obs.DMAH2D, n)
		}
	}
	if srcRank != ep.rank {
		tag.WireMsg(ep.rank, srcRank, 0)
	}
	if srcRank != dstRank {
		tag.WireMsg(srcRank, dstRank, n)
	}
	sb := srcEP.SegByID(srcSeg).Bytes(srcOff, n)
	db := dstEP.SegByID(dstSeg).Bytes(dstOff, n)
	m, dm, eng := ep.net.model, ep.net.dma, ep.net.eng
	var staged []byte

	// landed: the destination bytes are in place — hand the remote
	// notification to dstRank before anything else is scheduled.
	landed := func() {
		tag.Landing(dstRank, n)
		ep.deliverRemote(dstRank, rem)
	}

	// finish: data visible at the destination at time at; return the
	// completion to the initiator.
	finish := func(at time.Time) {
		if onDone == nil {
			return
		}
		if dstRank == ep.rank {
			eng.complete(at, ep, onDone)
			return
		}
		intra := ep.net.Intra(dstRank, ep.rank)
		eng.injectFromAt(int(dstRank), at, m.Gap(0, intra), m.Latency(0, intra),
			func(time.Time) { ep.enqueueComp(onDone) })
	}

	// dstSide: payload arrived at dstRank at time at — on the host side,
	// or (GPUDirect) written straight into the destination segment by
	// the NIC, making the wire landing the chain's last landing hop.
	dstSide := func(at time.Time) {
		tag.Hop(obs.StageWire, dstRank, n)
		if dstDev && !gdr {
			eng.injectDMAAt(int(dstRank), at, dm.Gap(n, false), dm.Latency(n, false), func(at2 time.Time) {
				tag.Hop(obs.StageDMA, dstRank, n)
				copy(db, staged)
				landed()
				finish(at2)
			})
			return
		}
		copy(db, staged)
		landed()
		finish(at)
	}

	// wire: payload staged at srcRank's host side at time at.
	wire := func(at time.Time) {
		intra := ep.net.Intra(srcRank, dstRank)
		eng.injectFromAt(int(srcRank), at, m.Gap(n, intra), m.Latency(n, intra), dstSide)
	}

	// srcSide: the copy begins executing at srcRank at time at.
	srcSide := func(at time.Time) {
		if srcRank == dstRank {
			switch {
			case srcDev && dstDev:
				// On-node d2d: one copy-engine descriptor at device speed.
				eng.injectDMAAt(int(srcRank), at, dm.Gap(n, true), dm.Latency(n, true), func(at2 time.Time) {
					tag.Hop(obs.StageDMA, srcRank, n)
					copy(db, sb)
					landed()
					finish(at2)
				})
			case srcDev || dstDev:
				// One h2d or d2h hop.
				eng.injectDMAAt(int(srcRank), at, dm.Gap(n, false), dm.Latency(n, false), func(at2 time.Time) {
					tag.Hop(obs.StageDMA, srcRank, n)
					copy(db, sb)
					landed()
					finish(at2)
				})
			default:
				// Host→host on one rank: a shared-memory move at intra cost.
				eng.injectFromAt(int(srcRank), at, m.Gap(n, true), m.Latency(n, true), func(at2 time.Time) {
					copy(db, sb)
					landed()
					finish(at2)
				})
			}
			return
		}
		if srcDev && !gdr {
			eng.injectDMAAt(int(srcRank), at, dm.Gap(n, false), dm.Latency(n, false), func(at2 time.Time) {
				tag.Hop(obs.StageDMA, srcRank, n)
				staged = eng.capture(sb)
				wire(at2)
			})
			return
		}
		// Host source, or (GPUDirect) the NIC reads the device segment
		// directly at wire injection: no d2h descriptor, no bounce.
		staged = eng.capture(sb)
		wire(at)
	}

	if srcRank == ep.rank {
		if (srcDev && (srcRank == dstRank || !gdr)) || (srcRank == dstRank && dstDev) {
			spinFor(dm.Overhead(n))
		} else {
			spinFor(m.Overhead(n, ep.net.Intra(ep.rank, dstRank)))
		}
		tag.Hop(obs.StageCapture, ep.rank, 0)
		srcSide(eng.now())
		return
	}
	// Third-party (or remote-source) copy: a request hop carries the
	// descriptor to the source rank, which executes the chain.
	intra := ep.net.Intra(ep.rank, srcRank)
	spinFor(m.Overhead(0, intra))
	tag.Hop(obs.StageCapture, ep.rank, 0)
	eng.injectFrom(int(ep.rank), m.Gap(0, intra), m.Latency(0, intra), srcSide)
}
