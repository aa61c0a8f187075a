package main

import (
	"encoding/json"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// Reference-speed normalization.
//
// The benchmark shares its host with other tenants whose load slows it
// down by up to half for minutes at a time, far beyond any bound a
// regression gate can use. Next to every op the benchmark therefore
// times a fixed reference kernel built only from the standard library,
// so nothing in this repository changes its cost. The load slows
// allocation-heavy code (JSON decoding, fresh heap objects, collection)
// and cache-resident arithmetic by different amounts, and the workloads
// mix both, so the kernel has one half of each: JSON decoding, map
// building and sorting, and building and walking a linked list; then a
// binary-heap event loop over a preallocated slice. An op's normalized
// time is its wall time scaled by refNominal over the median reference
// time around it; it reads as the op's time on a host where the kernel
// takes exactly refNominal. Raw times are reported next to the
// normalized ones.

// refNominal is about the reference kernel's time on the 2-CPU Xeon
// host of the baselines when its neighbours are quiet; it fixes the
// scale of every normalized time and must never change.
const refNominal = 4 * time.Millisecond

// refWindow is how many reference samples on each side of an op enter
// its median.
const refWindow = 10

// refRecords and refNodes size the allocating half of the kernel,
// refEvents its event-loop half, to about 2 ms each on that host.
const (
	refRecords = 1000
	refNodes   = 30000
	refEvents  = 25000
	refQueue   = 1000
)

type refTask struct {
	Name   string `json:"name"`
	WCET   string `json:"wcet"`
	Period string `json:"period"`
	Prio   int    `json:"prio"`
	ECU    string `json:"ecu"`
}

// refDoc is the kernel's fixed input: task-like JSON records.
var refDoc = func() []byte {
	tasks := make([]refTask, refRecords)
	for i := range tasks {
		tasks[i] = refTask{
			Name: "task" + strconv.Itoa(i*7919%3001), WCET: strconv.Itoa(i%97) + "us",
			Period: strconv.Itoa(1+i%200) + "ms", Prio: i, ECU: "ecu" + strconv.Itoa(i%32),
		}
	}
	data, err := json.Marshal(tasks)
	if err != nil {
		panic(err)
	}
	return data
}()

type refNode struct {
	next *refNode
	v    [4]int
}

type refEvent struct{ at, id int64 }

// refHeap is the event loop's preallocated queue.
var refHeap = make([]refEvent, 0, refQueue)

var refSink int

// reference collects garbage, then times one run of the reference
// kernel from a clean heap.
func reference() time.Duration {
	runtime.GC()
	t0 := time.Now()
	var tasks []refTask
	if err := json.Unmarshal(refDoc, &tasks); err != nil {
		panic(err) // refDoc is built above and always decodes
	}
	index := make(map[string]int, len(tasks))
	names := make([]string, 0, len(tasks))
	for i, t := range tasks {
		index[t.Name] = i
		names = append(names, t.Name)
	}
	sort.Strings(names)
	refSink += index[names[len(names)/2]]

	var head *refNode
	for i := 0; i < refNodes; i++ {
		head = &refNode{next: head, v: [4]int{i}}
	}
	for n := head; n != nil; n = n.next {
		refSink += n.v[0]
	}

	h := refHeap[:0]
	x := int64(1)
	next := func() int64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 40 & 0xffff
	}
	for i := 0; i < refQueue; i++ {
		h = pushEvent(h, refEvent{next(), int64(i)})
	}
	for i := 0; i < refEvents; i++ {
		var e refEvent
		e, h = popEvent(h)
		refSink += int(e.id)
		h = pushEvent(h, refEvent{e.at + next()&0xff + 1, e.id})
	}
	return time.Since(t0)
}

func pushEvent(h []refEvent, e refEvent) []refEvent {
	h = append(h, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func popEvent(h []refEvent) (refEvent, []refEvent) {
	e, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].at < h[c].at {
			c++
		}
		if h[i].at <= h[c].at {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return e, h
}

// speeds returns, per sample, refNominal over the median reference time
// of the samples within refWindow of it: the factor that scales a wall
// time to reference speed.
func speeds(refs []time.Duration) []float64 {
	out := make([]float64, len(refs))
	for i := range refs {
		lo, hi := max(0, i-refWindow), min(len(refs), i+refWindow+1)
		xs := make([]float64, 0, hi-lo)
		for _, r := range refs[lo:hi] {
			xs = append(xs, float64(r))
		}
		out[i] = ratio(float64(refNominal), median(xs))
	}
	return out
}
