package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The machine the baseline was measured on slows down by 20 to 90 % for
// minutes or hours at a time, with no steal time visible inside the guest,
// so a run that falls into such a phase reads slow however many flows it
// takes the median of. The yardstick measures the machine's current speed
// with a fixed loop from this package, which no change to the placer can
// touch, and rescales timed calls to the speed at which the loop takes
// refNominal: a short call by the loop timings around it, a long one by the
// run's median loop timing. Over eight minutes, 20-second medians of a
// flow's wall time varied by ±10 % where its ratio to the loop varied by
// ±4 %; across ten runs of flow-nw the interquartile range of flow_s fell
// from 12.6 % to 5.1 % of the median. The correction is partial in the
// slowest phases: when the loop ran 20 to 40 % slow, the placer's runs ran
// 35 to 95 % slow, about as the square of the loop's slowdown. Loops with a
// larger working set (pointer chases over 2 and 8 MiB, a sparse gather over
// 12 MiB) followed the placer's times no better.

// refNominal is refLoop's typical time on one unloaded lane of a 2.0 GHz
// Xeon vCPU, the speed the rescaled times are quoted at.
const refNominal = 0.017

// refBuf is one lane's working memory for refLoop, allocated once so that
// the loop never allocates and a garbage collection never lands in it.
type refBuf struct {
	a, b, xs []float64
	rng      *rand.Rand
}

func newRefBuf() *refBuf {
	const n = 128
	return &refBuf{a: make([]float64, n*n), b: make([]float64, n*n), xs: make([]float64, 50_000),
		rng: rand.New(rand.NewSource(3))}
}

// refLoop is a fixed amount of single-threaded work on 530 KiB, well inside
// a core's L2: a stencil sweep, a sort of 50k floats and a dependent
// square-root chain, a mix of floating point, branches and latency.
func (r *refBuf) refLoop() float64 {
	const n = 128
	a, b := r.a, r.b
	for i := range a {
		a[i] = float64(i % 97)
	}
	for it := 0; it < 60; it++ {
		for y := 1; y < n-1; y++ {
			for x := 1; x < n-1; x++ {
				i := y*n + x
				b[i] = 0.2 * (a[i] + a[i-1] + a[i+1] + a[i-n] + a[i+n])
			}
		}
		a, b = b, a
	}
	r.rng.Seed(3)
	for i := range r.xs {
		r.xs[i] = r.rng.Float64()
	}
	sort.Float64s(r.xs)
	x := 1.0
	for i := 0; i < 1_000_000; i++ {
		x = math.Sqrt(x*1.0000001+float64(i&7)) + 0.5
	}
	return a[n+1] + r.xs[0] + x
}

// yardstick brackets timed calls with timings of refLoop.
type yardstick struct {
	bufs []*refBuf // one per lane
	last float64   // refTime just before the call being timed
	refs []float64 // every refTime taken
	sink []float64 // keeps refLoop's results live
}

func newYardstick() *yardstick {
	y := &yardstick{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		y.bufs = append(y.bufs, newRefBuf())
	}
	y.sink = make([]float64, len(y.bufs))
	y.sample(1)
	return y
}

// refTime runs refLoop on every lane at once and returns the wall time until
// the last copy finishes: a worker pool's barrier waits for its slowest
// lane too.
func (y *yardstick) refTime() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	wg.Add(len(y.bufs))
	for i, buf := range y.bufs {
		go func() {
			defer wg.Done()
			y.sink[i] = buf.refLoop()
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// rescale takes a call's wall time, timed since the last loop timing, and
// returns it at the nominal speed, judged by the mean of the loop's time
// before and after the call. Two loop timings follow the machine's speed
// across a call of a second or two; across the 16 s of a scaling run they
// miss the phases inside it, and this doubled the spread of its time, so
// long calls use atSpeed.
func (y *yardstick) rescale(secs float64) float64 {
	before := y.last
	y.sample(1)
	return secs * refNominal / ((before + y.last) / 2)
}

// sample times refLoop n times.
func (y *yardstick) sample(n int) {
	for i := 0; i < n; i++ {
		y.last = y.refTime()
		y.refs = append(y.refs, y.last)
	}
}

// atSpeed returns a wall time at the nominal speed, judged by the median of
// every loop timing so far.
func (y *yardstick) atSpeed(secs float64) float64 {
	return secs * refNominal / median(y.refs)
}

// log reports the wall times before rescaling and the loop's times.
func (y *yardstick) log(logf func(string, ...any), setup, flow float64) {
	q1, q3 := quartiles(y.refs)
	logf("wall times before rescaling: setup_s %.4g, flow_s %.4g; reference loop %.4g ms [%.4g, %.4g] over %d runs, nominal %.4g ms",
		setup, flow, 1000*median(y.refs), 1000*q1, 1000*q3, len(y.refs), 1000*refNominal)
}
