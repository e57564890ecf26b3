package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapSampler tracks the most heap in use: a goroutine samples the
// runtime's live-plus-unswept heap object bytes every millisecond. The
// peak is kept per window, so a workload reports the median over its
// repetitions (each set-up included) rather than one GC-timing extreme.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

func heapBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.peak.Store(heapBytes([]metrics.Sample{{Name: heapObjectsMetric}}))
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapObjectsMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe(heapBytes(sample))
			}
		}
	}()
	return h
}

const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

func (h *heapSampler) observe(v uint64) {
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// window returns the peak in MiB since the previous call (or the start)
// and opens a new window at the current heap.
func (h *heapSampler) window() float64 {
	cur := heapBytes([]metrics.Sample{{Name: heapObjectsMetric}})
	return float64(max(h.peak.Swap(cur), cur)) / (1 << 20)
}

// close stops the sampler and waits for its goroutine.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// allocs returns the number of heap objects allocated so far.
func allocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// digest is an FNV-1a hash over float and integer words, for comparing
// outputs across repetitions and passes.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) floats(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }
