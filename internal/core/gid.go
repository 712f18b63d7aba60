package upcxx

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Goroutine identity: personas are held by goroutines, so futures, Wait,
// Progress and RPC bodies all ask which goroutine is running them. The id
// in the runtime.Stack header ("goroutine N [status]:") is exact and never
// reused, but parsing it costs microseconds on the runtime's print lock.
// On amd64 the same id is read from the runtime's goroutine descriptor g
// (getg loads it from thread-local storage): at init, calibrate finds the
// one word of g that equals the stack id on the calling goroutine and on
// gidFresh fresh ones. Without a unique match, and on other architectures,
// curGID parses runtime.Stack. Either way the ids are Go's goids.

const (
	gidScanWords = 256 / 8 // calibration scans the first 256 bytes of g
	gidFresh     = 8       // fresh goroutines probed besides the caller
)

// gidProbe is one goroutine's calibration sample: the leading words of
// its g and the id its stack header reports.
type gidProbe struct {
	words [gidScanWords]uint64
	id    uint64
}

// gidOff is the byte offset of the id within g, or -1 (parse the stack).
var gidOff = calibrateHere()

// gidLookups counts runtime.Stack parses; with a calibrated offset the
// hot paths perform none (TestGIDLookups* pin it).
var gidLookups atomic.Uint64

// curGID returns the calling goroutine's id.
func curGID() uint64 { return readGID(gidOff) }

// readGID reads the calling goroutine's id at byte offset off of its g,
// or parses runtime.Stack when off < 0.
func readGID(off int) uint64 {
	if off < 0 {
		return stackGID()
	}
	return *(*uint64)(unsafe.Add(getg(), off))
}

// stackGID parses the calling goroutine's id from runtime.Stack.
func stackGID() uint64 {
	gidLookups.Add(1)
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// calibrateHere probes the calling goroutine and gidFresh fresh ones and
// returns calibrate's offset (-1 without getg).
func calibrateHere() int {
	if !haveGetg {
		return -1
	}
	probes := make([]gidProbe, 1+gidFresh)
	probe := func(i int) {
		probes[i] = gidProbe{words: *(*[gidScanWords]uint64)(getg()), id: stackGID()}
	}
	probe(0)
	var wg sync.WaitGroup
	for i := 1; i < len(probes); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probe(i)
		}()
	}
	wg.Wait()
	off, _ := calibrate(probes)
	return off
}

// calibrate returns the byte offset of the single word that equals the id
// in every probe. It returns -1, false for fewer than 1+gidFresh probes,
// for ids that are zero or repeated, and when no word or several match.
func calibrate(probes []gidProbe) (int, bool) {
	seen := make(map[uint64]bool, len(probes))
	for _, p := range probes {
		if p.id == 0 || seen[p.id] {
			return -1, false
		}
		seen[p.id] = true
	}
	off := -1
	for w := 0; w < gidScanWords && len(probes) > gidFresh; w++ {
		match := true
		for _, p := range probes {
			match = match && p.words[w] == p.id
		}
		if match && off >= 0 {
			return -1, false
		}
		if match {
			off = w * 8
		}
	}
	return off, off >= 0
}
