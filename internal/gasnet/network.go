package gasnet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"upcxx/internal/obs"
)

// Rank identifies a process in a job, 0..Ranks-1.
type Rank = int32

// HandlerID names a registered Active Message handler. Handler tables are
// identical on every rank (SPMD: one binary), so IDs are valid network-wide.
type HandlerID uint16

// AMHandler is an Active Message handler. It runs on the target rank's
// goroutine during Poll, with the payload aliasing a network buffer that is
// only valid for the duration of the call — copy what must persist (this is
// the property upcxx::view exposes to users).
//
// aux is an opaque token that travels with the message but contributes no
// payload bytes: it models a code address (C++ function pointer / lambda
// invoker) which is valid on every rank because SPMD ranks share one
// binary. The runtime ships RPC invoker functions this way; user data must
// go through the payload.
type AMHandler func(ep *Endpoint, src Rank, payload []byte, aux any)

// Config describes a job.
type Config struct {
	Ranks        int
	RanksPerNode int   // 0 means all ranks share one node
	SegmentSize  int   // per-rank segment bytes; 0 means 8 MiB
	Model        Model // nil means NoDelay
	// DMA is the device copy-engine model used for transfers touching
	// device-kind segments. nil defaults to PCIe3 when Model is a
	// real-time model. With a zero-delay network model device hops are
	// always instantaneous: only DMA's GPUDirect capability is kept.
	DMA DMAModel
	// Obs, when non-nil, is the job's observability recorder (sized to
	// Ranks): the conduit records wire messages per peer, DMA
	// descriptors by hop kind, doorbell wakeups, and op-lifecycle hops
	// into it. nil disables all conduit-side recording.
	Obs *obs.Obs
	// Real, when non-nil, selects a real multi-process transport
	// backend ("tcp" or "shm") instead of the in-process conduit. The
	// network then hosts only Real.Rank's endpoint; Model must be nil.
	Real *RealConduit
	// Aux serializes AM aux tokens across process boundaries (required
	// for RPC over a real backend). Ignored by in-process backends.
	Aux AuxCodec
}

// DefaultSegmentSize is the per-rank segment size when Config leaves it 0.
const DefaultSegmentSize = 8 << 20

// Network couples the endpoints of one job. It owns the AM handler table
// and, when a timing model is installed, the delivery engine.
type Network struct {
	cfg   Config
	model Model
	dma   DMAModel
	gdr   bool // every endpoint's engine is GPUDirect-capable
	eps   []*Endpoint
	eng   *engine    // nil = zero-delay: hop chains deliver inline
	trans *transport // real transport backend; nil = in-process conduit

	hmu      sync.Mutex
	handlers []AMHandler

	// DMA hop trace: when armed, every device copy-engine descriptor is
	// recorded so tests can prove a transfer path (e.g. that a
	// device-resident collective moved its payload exclusively through
	// the DMA channel, with zero host-staging copies).
	dmaTraceOn atomic.Bool
	dmaMu      sync.Mutex
	dmaTrace   []DMAHop

	closed atomic.Bool
}

// DMAHop records one device copy-engine descriptor: the rank whose
// engine executed it, the bytes it moved, and the memory kinds it
// bridged. The trace predates the obs subsystem and is kept for tests
// that assert on transfer paths; the per-kind descriptor *counters* now
// live in obs (see countDMA, which feeds both).
type DMAHop struct {
	Rank  Rank
	Bytes int
	Kind  obs.DMAKind
}

// TraceDMA arms (or disarms) the DMA hop trace, clearing any prior
// record. Tracing is for tests and tooling; it serializes descriptor
// accounting while armed.
func (n *Network) TraceDMA(on bool) {
	n.dmaMu.Lock()
	n.dmaTrace = nil
	n.dmaMu.Unlock()
	n.dmaTraceOn.Store(on)
}

// DMATrace returns a copy of the hops recorded since TraceDMA(true).
func (n *Network) DMATrace() []DMAHop {
	n.dmaMu.Lock()
	defer n.dmaMu.Unlock()
	out := make([]DMAHop, len(n.dmaTrace))
	copy(out, n.dmaTrace)
	return out
}

// NewNetwork creates the conduit for a job.
func NewNetwork(cfg Config) *Network {
	if cfg.Ranks <= 0 {
		panic("gasnet: Config.Ranks must be positive")
	}
	if cfg.SegmentSize == 0 {
		cfg.SegmentSize = DefaultSegmentSize
	}
	if cfg.RanksPerNode <= 0 {
		cfg.RanksPerNode = cfg.Ranks
	}
	model, dma := cfg.Model, cfg.DMA
	_, realtime := model.(*LogGP)
	switch {
	case !realtime:
		// Zero-delay: every hop is free whatever the DMA model costs,
		// but a GPUDirect engine still selects the direct chains.
		model, dma = NoDelay{}, NoDelayDMA{GDR: dma != nil && dma.GPUDirect()}
	case dma == nil:
		dma = PCIe3()
	}
	if cfg.Obs != nil && cfg.Obs.Ranks() != cfg.Ranks {
		panic("gasnet: Config.Obs sized for a different job")
	}
	n := &Network{cfg: cfg, model: model, dma: dma, gdr: dma.GPUDirect()}
	n.eps = make([]*Endpoint, cfg.Ranks)
	if cfg.Real != nil {
		// Real multi-process backend: this process hosts exactly one
		// endpoint; every other rank is a separate OS process reached
		// through the transport. A timing model makes no sense here.
		if realtime {
			panic("gasnet: Config.Model must be nil with a real transport backend")
		}
		self := cfg.Real.Rank
		if self < 0 || self >= cfg.Ranks {
			panic(fmt.Sprintf("gasnet: Real.Rank %d out of range [0,%d)", self, cfg.Ranks))
		}
		n.eps[self] = &Endpoint{
			rank:   Rank(self),
			net:    n,
			seg:    NewSegment(cfg.SegmentSize),
			notify: make(chan struct{}, 1),
		}
		if cfg.Obs != nil {
			n.eps[self].ro = cfg.Obs.Rank(self)
		}
		t, err := newTransport(n, cfg.Real)
		if err != nil {
			panic(fmt.Sprintf("gasnet: transport bootstrap failed: %v", err))
		}
		n.trans = t
		return n
	}
	for r := 0; r < cfg.Ranks; r++ {
		n.eps[r] = &Endpoint{
			rank:   Rank(r),
			net:    n,
			seg:    NewSegment(cfg.SegmentSize),
			notify: make(chan struct{}, 1),
		}
		if cfg.Obs != nil {
			n.eps[r].ro = cfg.Obs.Rank(r)
		}
	}
	if realtime {
		n.eng = newEngine(cfg.Ranks)
	}
	return n
}

// Conduit names the active conduit backend: "model" for the in-process
// simulated conduit, or the real backend name ("tcp", "shm").
func (n *Network) Conduit() string {
	if n.trans != nil {
		return n.trans.backend
	}
	return "model"
}

// ConduitInfo snapshots the real backend's identity and wire counters;
// the zero value (Backend "model") is returned for in-process conduits.
func (n *Network) ConduitInfo() ConduitInfo {
	if n.trans != nil {
		return n.trans.info()
	}
	return ConduitInfo{Backend: "model", Ranks: n.cfg.Ranks}
}

// Failed reports a transport-level job failure (a peer process died):
// nil while healthy, an error wrapping ErrPeerLost after a peer is
// lost. In-process conduits never fail.
func (n *Network) Failed() error {
	if n.trans != nil {
		return n.trans.failure()
	}
	return nil
}

// Ranks returns the job size.
func (n *Network) Ranks() int { return n.cfg.Ranks }

// RanksPerNode returns the number of ranks sharing each simulated node.
func (n *Network) RanksPerNode() int { return n.cfg.RanksPerNode }

// Node returns the node index hosting rank r.
func (n *Network) Node(r Rank) int { return int(r) / n.cfg.RanksPerNode }

// Intra reports whether ranks a and b share a node.
func (n *Network) Intra(a, b Rank) bool { return n.Node(a) == n.Node(b) }

// Endpoint returns rank r's endpoint.
func (n *Network) Endpoint(r Rank) *Endpoint { return n.eps[r] }

// GPUDirect reports whether the job's direct NIC↔device datapath is in
// effect. The simulated conduit has one DMA model for the whole job, so
// "both endpoints capable" is a job-wide property.
func (n *Network) GPUDirect() bool { return n.gdr }

// RegisterAM installs a handler and returns its ID. All registration must
// happen before communication starts (the runtime registers its handlers at
// world creation, mirroring GASNet's static handler table).
func (n *Network) RegisterAM(h AMHandler) HandlerID {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	n.handlers = append(n.handlers, h)
	if len(n.handlers) > 1<<16 {
		panic("gasnet: AM handler table overflow")
	}
	return HandlerID(len(n.handlers) - 1)
}

func (n *Network) handler(id HandlerID) AMHandler {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	if int(id) >= len(n.handlers) {
		panic(fmt.Sprintf("gasnet: AM to unregistered handler %d", id))
	}
	return n.handlers[id]
}

// Close shuts the delivery engine down. Outstanding operations are dropped;
// call only after the job has quiesced.
func (n *Network) Close() {
	if n.closed.Swap(true) {
		return
	}
	if n.eng != nil {
		n.eng.stop()
	}
	if n.trans != nil {
		n.trans.close()
	}
}

// Stats aggregates traffic counters for one endpoint. DMAs counts device
// copy-engine descriptors issued against this rank's devices; DMABytes the
// bytes they moved.
type Stats struct {
	Puts     uint64
	PutBytes uint64
	Gets     uint64
	GetBytes uint64
	AMs      uint64
	AMBytes  uint64
	AMOs     uint64
	DMAs     uint64
	DMABytes uint64
}

// Endpoint is one rank's attachment to the network.
type Endpoint struct {
	rank Rank
	net  *Network
	seg  *Segment
	ro   *obs.RankObs // this rank's observability recorder; nil = disabled

	devMu sync.Mutex
	devs  []*Segment // device segments; SegID i+1 is devs[i]

	qmu     sync.Mutex
	compQ   []func()    // completions to run on the owner during Poll
	amQ     []inboundAM // delivered AMs awaiting handler execution
	polling bool        // guards against recursive progress (restricted context)

	notify chan struct{} // 1-slot doorbell for WaitPending

	puts, putBytes, gets, getBytes, ams, amBytes, amos atomic.Uint64
	dmas, dmaBytes                                     atomic.Uint64
}

type inboundAM struct {
	src     Rank
	handler HandlerID
	payload []byte
	aux     any
}

// Rank returns this endpoint's rank.
func (ep *Endpoint) Rank() Rank { return ep.rank }

// Network returns the owning network.
func (ep *Endpoint) Network() *Network { return ep.net }

// Segment returns this rank's registered host segment.
func (ep *Endpoint) Segment() *Segment { return ep.seg }

// AddDeviceSegment registers a device-kind segment of size bytes on this
// rank — the conduit half of opening a device allocator — and returns its
// SegID. Device segments live until the network is torn down, like GPU
// segments registered with GASNet-EX memory kinds.
func (ep *Endpoint) AddDeviceSegment(size int) SegID {
	ep.devMu.Lock()
	defer ep.devMu.Unlock()
	if len(ep.devs) >= 1<<16-1 {
		panic("gasnet: device segment table overflow")
	}
	ep.devs = append(ep.devs, NewSegmentKind(size, KindDevice))
	return SegID(len(ep.devs))
}

// CloseDeviceSegment unregisters a device segment — the conduit half of
// closing a device allocator. The id is retired, never reused: later
// resolutions of pointers into the segment fault with a use-after-close
// error rather than silently reading unrelated memory, which is the
// poisoning the runtime promises for GPtrs that outlive their allocator.
func (ep *Endpoint) CloseDeviceSegment(id SegID) {
	ep.devMu.Lock()
	defer ep.devMu.Unlock()
	if id == HostSeg || int(id) > len(ep.devs) {
		panic(fmt.Sprintf("gasnet: rank %d: CloseDeviceSegment(%d): no such device segment (%d registered)",
			ep.rank, id, len(ep.devs)))
	}
	if ep.devs[id-1] == nil {
		panic(fmt.Sprintf("gasnet: rank %d: device segment %d closed twice", ep.rank, id))
	}
	ep.devs[id-1] = nil
}

// GrowDeviceSegment extends device segment id by extra bytes in place.
// Offsets into the segment are stable across growth, so outstanding
// GPtrs stay valid; the caller must quiesce transfers touching the
// segment first (the same contract as CloseDeviceSegment), because
// in-flight hop chains hold byte slices resolved against the old
// backing store. Growing a closed or unknown segment faults like a
// wild/poisoned pointer would.
func (ep *Endpoint) GrowDeviceSegment(id SegID, extra int) {
	ep.devMu.Lock()
	defer ep.devMu.Unlock()
	if id == HostSeg || int(id) > len(ep.devs) {
		panic(fmt.Sprintf("gasnet: rank %d: GrowDeviceSegment(%d): no such device segment (%d registered)",
			ep.rank, id, len(ep.devs)))
	}
	seg := ep.devs[id-1]
	if seg == nil {
		panic(fmt.Sprintf("gasnet: rank %d device segment %d is closed — grow after CloseDeviceAllocator",
			ep.rank, id))
	}
	seg.Grow(extra)
}

// ChargeFusedFold accounts one fused reduction kernel launch on this
// rank's device: `ways` landed child operands of n bytes each folded
// into the accumulator by a single launch. The launch occupies the
// device for the model's FoldGap, charged synchronously (folds run on
// the rank's execution persona, like RunKernel).
func (ep *Endpoint) ChargeFusedFold(n, ways int) {
	if ep.ro != nil {
		ep.ro.FusedFold(ways)
	}
	spinFor(ep.net.dma.FoldGap(n, ways))
}

// DeviceSegments returns the number of device segments currently
// registered (open) on this rank.
func (ep *Endpoint) DeviceSegments() int {
	ep.devMu.Lock()
	defer ep.devMu.Unlock()
	n := 0
	for _, s := range ep.devs {
		if s != nil {
			n++
		}
	}
	return n
}

// SegByID resolves a segment id: 0 is the host segment, 1.. are device
// segments. An unknown id panics — the analogue of dereferencing a wild
// device pointer — and a closed one panics with a use-after-close fault.
func (ep *Endpoint) SegByID(id SegID) *Segment {
	if id == HostSeg {
		return ep.seg
	}
	ep.devMu.Lock()
	defer ep.devMu.Unlock()
	if int(id) > len(ep.devs) {
		panic(fmt.Sprintf("gasnet: rank %d has no device segment %d (%d registered) — wild device pointer",
			ep.rank, id, len(ep.devs)))
	}
	seg := ep.devs[id-1]
	if seg == nil {
		panic(fmt.Sprintf("gasnet: rank %d device segment %d is closed — GPtr used after CloseDeviceAllocator",
			ep.rank, id))
	}
	return seg
}

// Stats returns a snapshot of this endpoint's traffic counters.
func (ep *Endpoint) Stats() Stats {
	return Stats{
		Puts:     ep.puts.Load(),
		PutBytes: ep.putBytes.Load(),
		Gets:     ep.gets.Load(),
		GetBytes: ep.getBytes.Load(),
		AMs:      ep.ams.Load(),
		AMBytes:  ep.amBytes.Load(),
		AMOs:     ep.amos.Load(),
		DMAs:     ep.dmas.Load(),
		DMABytes: ep.dmaBytes.Load(),
	}
}

// countDMA records one descriptor of hop kind k on this rank's device
// copy engine: the endpoint totals, the obs per-kind counters, and (when
// armed) the legacy DMA hop trace.
func (ep *Endpoint) countDMA(k obs.DMAKind, n int) {
	ep.dmas.Add(1)
	ep.dmaBytes.Add(uint64(n))
	if ep.ro != nil {
		ep.ro.DMA(k, n)
	}
	if ep.net.dmaTraceOn.Load() {
		ep.net.dmaMu.Lock()
		ep.net.dmaTrace = append(ep.net.dmaTrace, DMAHop{Rank: ep.rank, Bytes: n, Kind: k})
		ep.net.dmaMu.Unlock()
	}
}

// syncDirect runs fn — a delivery goroutine's direct touch of segment
// memory or a user buffer (a one-sided put landing, a get serving) —
// under the endpoint queue lock. Every polling goroutine acquires that
// lock each progress pass, so the access is ordered against user-code
// reads and writes of the same memory: the conduit's ack/barrier
// protocol already provides the real-time ordering, but it runs through
// *other processes*, where the race detector cannot follow it; the lock
// turns it into a happens-before edge it can. fn must not enqueue
// (enqueueComp/enqueueAM re-lock the same mutex).
func (ep *Endpoint) syncDirect(fn func()) {
	ep.qmu.Lock()
	defer ep.qmu.Unlock()
	fn()
}

func (ep *Endpoint) enqueueComp(f func()) {
	ep.qmu.Lock()
	ep.compQ = append(ep.compQ, f)
	ep.qmu.Unlock()
	ep.Ring()
}

func (ep *Endpoint) enqueueAM(am inboundAM) {
	ep.qmu.Lock()
	ep.amQ = append(ep.amQ, am)
	ep.qmu.Unlock()
	ep.Ring()
}

// Ring signals a blocked WaitPending without ever blocking the caller.
// The runtime rings it for deliveries that bypass the endpoint queues
// (persona LPCs), so a sleeping progress thread wakes for them too.
// Rings coalesce in the 1-slot doorbell: only a deposit that found the
// slot empty is counted (obs "rings"), so a batch of deliveries rung
// back-to-back causes — and counts as — one wakeup, not one per op.
func (ep *Endpoint) Ring() {
	select {
	case ep.notify <- struct{}{}:
		if ep.ro != nil {
			ep.ro.Ring()
		}
	default:
	}
}

// WaitPending blocks until a delivery is waiting for Poll or d elapses,
// reporting whether work is (or may be) pending. Progress threads use it
// to idle without burning a core; the doorbell is best-effort, so callers
// must still poll after a timeout.
func (ep *Endpoint) WaitPending(d time.Duration) bool {
	if ep.Pending() {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ep.notify:
		if ep.ro != nil {
			ep.ro.Wakeup()
		}
		return true
	case <-t.C:
		return ep.Pending()
	}
}

// PollCompletions drains delivered operation completions (put/get acks,
// AMO results) without executing any Active Message handlers. This is the
// conduit-level half of "internal progress" in the paper's terms: it
// advances actQ bookkeeping but runs no user code beyond the runtime's own
// completion thunks.
func (ep *Endpoint) PollCompletions() int {
	ep.qmu.Lock()
	comp := ep.compQ
	ep.compQ = nil
	ep.qmu.Unlock()
	for _, f := range comp {
		f()
	}
	return len(comp)
}

// PollAMs executes delivered Active Messages on the calling goroutine —
// the user-level-progress half. Any goroutine making progress for the
// endpoint may call it; concurrent and recursive calls coalesce through
// the qmu-guarded polling flag (which doubles as UPC++'s restricted
// progress context), so at most one goroutine executes handlers at a
// time and handlers arriving while draining run on the next call.
func (ep *Endpoint) PollAMs() int {
	ep.qmu.Lock()
	if ep.polling {
		ep.qmu.Unlock()
		return 0
	}
	ep.polling = true
	ams := ep.amQ
	ep.amQ = nil
	ep.qmu.Unlock()

	for _, am := range ams {
		h := ep.net.handler(am.handler)
		h(ep, am.src, am.payload, am.aux)
	}

	ep.qmu.Lock()
	ep.polling = false
	ep.qmu.Unlock()
	return len(ams)
}

// Poll drains completions then Active Messages, returning the number of
// items processed. An empty poll yields the processor so that delivery
// goroutines are never starved by poll loops on few-core hosts.
func (ep *Endpoint) Poll() int {
	n := ep.PollCompletions() + ep.PollAMs()
	if n == 0 {
		runtime.Gosched()
	}
	return n
}

// Pending reports whether deliveries are waiting for Poll.
func (ep *Endpoint) Pending() bool {
	ep.qmu.Lock()
	defer ep.qmu.Unlock()
	return len(ep.compQ) > 0 || len(ep.amQ) > 0
}

// spinFor burns CPU for d, modeling initiator software overhead.
func spinFor(d time.Duration) {
	if d <= 0 {
		return
	}
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}

// RemoteAM describes an Active Message to deliver at the *destination*
// rank of a put or copy at the moment the transferred bytes become
// visible in the destination segment — the conduit half of remote
// completion (remote_cx), modeled on GASNet-EX's signaling put / remote
// completion events. The notification piggybacks on the transfer: it is
// enqueued on the destination at the landing timestamp of the final
// wire/DMA hop, costs no extra wire message, and the destination's AM
// handler is guaranteed to observe the transferred data.
//
// One RemoteAM may be shared by every fragment of a multi-fragment
// operation to a single destination (SetFragments): the conduit counts
// landings and enqueues the notification exactly once, when the
// last-landing fragment's bytes are in place — so the handler observes
// the whole operation without any initiator-side gating round trip.
type RemoteAM struct {
	Handler HandlerID
	Payload []byte
	Aux     any

	frags atomic.Int32 // shared landing countdown; 0 = single-shot
}

// SetFragments arms the AM to fire on the n'th landing instead of the
// first. Call before handing the AM to the conduit.
func (r *RemoteAM) SetFragments(n int) { r.frags.Store(int32(n)) }

// deliverRemote enqueues rem on dst's AM queue, attributed to this
// (initiating) endpoint. Callers invoke it only after the data of the
// owning transfer has been copied into dst's segment, so the enqueue's
// synchronization publishes the data to the handler. A counted AM
// (SetFragments) is enqueued only by the last-landing fragment.
func (ep *Endpoint) deliverRemote(dst Rank, rem *RemoteAM) {
	if rem == nil {
		return
	}
	if rem.frags.Load() > 0 && rem.frags.Add(-1) > 0 {
		return
	}
	ep.net.eps[dst].enqueueAM(inboundAM{src: ep.rank, handler: rem.Handler, payload: rem.Payload, aux: rem.Aux})
}

// Put starts a one-sided put of src into (dst, dstOff). The source buffer
// is captured before Put returns (source completion is synchronous, as with
// an eager-copy rput). onAck, if non-nil, is delivered to this endpoint's
// completion queue once the data is globally visible at the target
// (operation completion; requires initiator attentiveness to observe, but
// the transfer itself completes without it).
func (ep *Endpoint) Put(dst Rank, dstOff uint64, src []byte, onAck func()) {
	ep.PutSegTag(dst, HostSeg, dstOff, src, onAck, nil, obs.OpTag{})
}

// Get starts a one-sided get of len(dst) bytes from (src, srcOff) into dst.
// dst must not be read (or reused) until onDone is delivered via Poll.
func (ep *Endpoint) Get(src Rank, srcOff uint64, dst []byte, onDone func()) {
	ep.GetSegTag(src, HostSeg, srcOff, dst, onDone, obs.OpTag{})
}

// AM sends an Active Message carrying payload to the handler h on dst. The
// payload is captured before AM returns. Delivery enqueues the handler on
// the target, which runs it at its next Poll — the target must be attentive
// for the message to execute, exactly as the paper describes for RPC.
//
// aux travels with the message as an opaque token (see AMHandler); pass nil
// when unused.
func (ep *Endpoint) AM(dst Rank, h HandlerID, payload []byte, aux any) {
	ep.AMTag(dst, h, payload, aux, obs.OpTag{})
}

// AMTag is AM carrying the initiator's observability tag: the one-fragment
// case of AMTagV.
func (ep *Endpoint) AMTag(dst Rank, h HandlerID, payload []byte, aux any, tag obs.OpTag) {
	ep.AMTagV(dst, h, [][]byte{payload}, aux, tag)
}

// AMTagV is AMTag taking the payload as an iovec: the message is the
// concatenation of frags, which is gathered into one staged buffer at
// the conduit capture stage — the single copy on this path. Fragments
// may alias caller memory (borrowed view payloads from a gather-mode
// encoder); the caller must keep them unchanged until AMTagV returns,
// after which every fragment is reusable (source completion). In the
// real-time model the gather happens after the initiator overhead spin,
// and mutations made after return but before wire delivery are not
// observed by the target — the capture is exactly once, exactly here.
// The landing edge fires when the message is enqueued at the target
// (handler execution still requires target attentiveness).
func (ep *Endpoint) AMTagV(dst Rank, h HandlerID, frags [][]byte, aux any, tag obs.OpTag) {
	n := 0
	for _, f := range frags {
		n += len(f)
	}
	ep.ams.Add(1)
	ep.amBytes.Add(uint64(n))
	if t := ep.net.trans; t != nil && dst != ep.rank {
		// Borrowed fragments are encoded straight into the frame
		// buffer — the single capture copy — and are reusable on
		// return, preserving the gather-capture contract.
		t.am(dst, h, frags, aux, tag)
		return
	}
	tgt := ep.net.eps[dst]
	intra := ep.net.Intra(ep.rank, dst)
	m := ep.net.model
	tag.WireMsg(ep.rank, dst, n)
	spinFor(m.Overhead(n, intra))
	// The handler runs after AMTagV returns, so the payload is always
	// staged, even when delivery is synchronous.
	staged := make([]byte, 0, n)
	for _, f := range frags {
		staged = append(staged, f...)
	}
	tag.Hop(obs.StageCapture, ep.rank, n)
	ep.net.eng.injectFrom(int(ep.rank), m.Gap(n, intra), m.Latency(n, intra), func(time.Time) {
		tgt.enqueueAM(inboundAM{src: ep.rank, handler: h, payload: staged, aux: aux})
		tag.Landing(dst, n)
	})
}

// AMO issues a NIC-offloaded atomic on the 64-bit word at (dst, off). The
// operation executes at the target's segment without target CPU
// involvement; onResult (if non-nil) is delivered to this endpoint with the
// word's previous value.
func (ep *Endpoint) AMO(dst Rank, off uint64, op AMOOp, op1, op2 uint64, onResult func(old uint64)) {
	ep.AMOTag(dst, off, op, op1, op2, onResult, obs.OpTag{})
}

// AMOTag is AMO carrying the initiator's observability tag.
func (ep *Endpoint) AMOTag(dst Rank, off uint64, op AMOOp, op1, op2 uint64, onResult func(old uint64), tag obs.OpTag) {
	ep.amos.Add(1)
	if t := ep.net.trans; t != nil && dst != ep.rank {
		t.amo(dst, off, op, op1, op2, onResult, tag)
		return
	}
	tgt := ep.net.eps[dst]
	// Resolve and validate eagerly: a bad offset or opcode must fault on
	// the initiating goroutine, not inside the delivery engine.
	tgt.seg.Bytes(off, 8)
	if op > AMOCompSwap {
		panic(fmt.Sprintf("gasnet: unknown AMO op %d", op))
	}
	intra := ep.net.Intra(ep.rank, dst)
	m, eng := ep.net.model, ep.net.eng
	tag.WireMsg(ep.rank, dst, 8)
	spinFor(m.Overhead(8, intra))
	tag.Hop(obs.StageCapture, ep.rank, 8)
	lat := m.Latency(8, intra)
	eng.injectFrom(int(ep.rank), m.Gap(8, intra), lat, func(at time.Time) {
		old := tgt.seg.applyAMO(off, op, op1, op2)
		tag.Landing(dst, 8)
		if onResult != nil {
			eng.complete(at.Add(lat), ep, func() { onResult(old) })
		}
	})
}
