package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the layer. Spans of one trial or request share ID; Parent names
// the span that caused this one.
type span struct {
	Name    string `json:"name"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how an untraced run is spelled.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(name, id, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent,
		StartUS: start.Sub(l.origin).Microseconds(), EndUS: end.Sub(l.origin).Microseconds()}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported as supported by the sample.
const minBeyond = 10

// supportedPercentile returns the highest of the usual percentiles that has
// at least minBeyond of n samples beyond it (50 when even the median has not).
func supportedPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile is the nearest-rank p-th percentile of sorted (ascending)
// values; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0 (a layer that did no work has no share).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memProbe measures the Go runtime's allocation work over a section, and
// (when sampling) the peak heap in use during it.
type memProbe struct {
	before runtime.MemStats
	stop   chan struct{}
	done   chan struct{}
	peak   uint64
}

// memUse is what a memProbe saw.
type memUse struct {
	allocMB, heapPeakMB float64
	mallocs             uint64
	gcCycles            uint32
}

// heapSampleEvery is the HeapInuse sampling period. ReadMemStats stops the
// world, so the sampler runs only in traced runs.
const heapSampleEvery = 100 * time.Millisecond

func startMemProbe() *memProbe {
	m := &memProbe{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&m.before)
	m.peak = m.before.HeapInuse
	go func() {
		defer close(m.done)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapInuse > m.peak {
					m.peak = ms.HeapInuse
				}
			}
		}
	}()
	return m
}

func (m *memProbe) finish() memUse {
	close(m.stop)
	<-m.done
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapInuse > m.peak {
		m.peak = after.HeapInuse
	}
	const mb = 1 << 20
	return memUse{
		allocMB:    float64(after.TotalAlloc-m.before.TotalAlloc) / mb,
		heapPeakMB: float64(m.peak) / mb,
		mallocs:    after.Mallocs - m.before.Mallocs,
		gcCycles:   after.NumGC - m.before.NumGC,
	}
}
