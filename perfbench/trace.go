package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// spanName is the layer boundary a span brackets. Every span is recorded
// by the benchmark's own code around one call into a public function of
// the program (or around the benchmark's own loop body), never inside the
// program.
type spanName uint8

const (
	spBenchOp    spanName = iota // shm-pair: one blocking op, the root of its inject and wait
	spBenchRound                 // dht-batch, task-drain: one round, the root of its calls
	spCoreInject                 // core.RPut / RGet / FetchAdd / RPC, up to the returned future
	spCoreWait                   // core Future.Wait
	spDHTInsert                  // dht BatchInserter.Insert
	spDHTFlush                   // dht BatchInserter.FlushAll
	spTaskSpawn                  // task.AsyncAtFF
	spTaskFinish                 // task Runtime.Finish
	spTaskExec                   // a task body, on whichever goroutine ran it
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench.op", "bench.round", "core.inject", "core.wait",
	"dht.insert", "dht.flush", "task.spawn", "task.finish", "task.exec",
}

// span is one recorded interval. Times are nanoseconds since the epoch of
// the lane that recorded it.
type span struct {
	Name   spanName
	Rank   int32 // the recording rank; 2 for task bodies
	Parent int32 // index of the enclosing span in the same lane; -1 at a root
	Op     uint64
	Start  int64
	End    int64
}

// lane records the nested spans of one goroutine. A nil lane records
// nothing, which is how the untraced runs pay only a nil check.
type lane struct {
	id    int32
	epoch time.Time
	spans []span
	open  []int32
}

func newLane(id int32, epoch time.Time) *lane {
	return &lane{id: id, epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// begin opens a span nested in the innermost open span and returns its
// handle for end.
func (l *lane) begin(n spanName, op uint64) int32 {
	if l == nil {
		return -1
	}
	parent := int32(-1)
	if k := len(l.open); k > 0 {
		parent = l.open[k-1]
	}
	l.spans = append(l.spans, span{Name: n, Rank: l.id, Parent: parent, Op: op, Start: int64(time.Since(l.epoch))})
	i := int32(len(l.spans) - 1)
	l.open = append(l.open, i)
	return i
}

// end closes the span begin returned, which must be the innermost open one.
func (l *lane) end(i int32) {
	if l == nil {
		return
	}
	l.spans[i].End = int64(time.Since(l.epoch))
	l.open = l.open[:len(l.open)-1]
}

// now is the lane clock, for stamps carried inside task arguments.
func (l *lane) now() int64 { return int64(time.Since(l.epoch)) }

// wallOf converts a lane time to Unix nanoseconds, for comparing with
// stamps taken in another process on the same host.
func (l *lane) wallOf(t int64) int64 { return l.epoch.UnixNano() + t }

// sharedLane collects root spans from several goroutines at once (task
// bodies run on workers and inside Finish alike).
type sharedLane struct {
	mu sync.Mutex
	l  *lane
}

func (s *sharedLane) add(n spanName, op uint64, start, end int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.l.spans = append(s.l.spans, span{Name: n, Rank: s.l.id, Parent: -1, Op: op, Start: start, End: end})
	s.mu.Unlock()
}

// layerTimes holds, per span name, every span's duration and self time
// in microseconds.
type layerTimes struct {
	dur  [numSpanNames][]float64
	self [numSpanNames][]float64
}

// collectLayers computes durations and self times over lanes, each a
// lane's spans in recording order. A span's self time is its duration
// minus the part of it that its child spans cover.
func collectLayers(lanes [][]span) layerTimes {
	var lt layerTimes
	for _, spans := range lanes {
		children := make(map[int32][]interval)
		for _, s := range spans {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
			}
		}
		for i, s := range spans {
			iv := interval{s.Start, s.End}
			lt.dur[s.Name] = append(lt.dur[s.Name], us(iv.end-iv.start))
			lt.self[s.Name] = append(lt.self[s.Name], us(selfTime(iv, children[int32(i)])))
		}
	}
	return lt
}

// rootTime sums the durations of the root spans of lanes: the traced
// time the span trees account for.
func rootTime(lanes [][]span) int64 {
	var t int64
	for _, spans := range lanes {
		for _, s := range spans {
			if s.Parent < 0 {
				t += s.End - s.Start
			}
		}
	}
	return t
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// writeSpans writes every span as one tab-separated line: the lane's
// index (parent indexes count within it), the recording rank (2: task
// bodies), name, parent, op id, start and end.
func writeSpans(path string, lanes [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "lane\trank\tname\tparent\top\tstart_ns\tend_ns")
	for li, spans := range lanes {
		for _, s := range spans {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", li, s.Rank, spanNames[s.Name], s.Parent, s.Op, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
