package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// maxBacklog bounds arrivals that are due but not yet sent. An arrival
// finding the backlog full is shed: the honest record that the offered
// rate exceeded what the stack absorbed. At the rates the workloads
// offer it stays empty.
const maxBacklog = 1024

// openLoop releases arrival i at start + i/rate whether or not earlier
// requests have answered, over at most conns connections (one sender
// goroutine each). An arrival's latency is its round trip plus its
// backlog: the time it waited, after its release, for a sender still
// busy with an earlier request. A stall of the stack thus also charges
// the wait it imposes on later arrivals, but the generator's own
// lateness does not count: how late the dispatcher woke, and how long
// an idle sender took to wake for the arrival. Those wake-ups are
// what CPU steal stretches first: on a 2-vCPU virtual machine under
// 15% steal, latency from due exceeded this latency by 0.85 ms at the
// median, against 0.13 ms on a quiet host. The latency from due is
// reported beside it.
type openLoop struct {
	rate  float64
	dur   time.Duration
	conns int
	// send performs arrival i and returns its round trip. The check is
	// nil when the request failed (a transport or API error), else a
	// check of the answer, which a separate verifier runs so that
	// judging one answer never delays the next request; a wrong answer
	// is a failure too.
	send func(i int) (rt time.Duration, check func() bool)
}

type arrival struct {
	i        int
	due      time.Time
	released time.Time
}

type verdict struct {
	i     int
	check func() bool
}

// loadResult is one open-loop run. lat and late are indexed by
// arrival; a failed or shed arrival's latency is +Inf, so it misses
// every percentile limit.
type loadResult struct {
	lat     []float64 // ms, round trip plus backlog
	fromDue []float64 // ms, due → answered
	late    []float64 // ms, due → released to the senders
	wait    []float64 // ms, due → sent (generator lateness plus backlog)
	shed    int
	usage   usage
	peakMB  float64
	heapMB  float64
	elapsed time.Duration
}

func arrivals(rate float64, dur time.Duration) int {
	return int(rate * dur.Seconds())
}

func (o openLoop) run() loadResult {
	n := arrivals(o.rate, o.dur)
	res := loadResult{lat: make([]float64, n), fromDue: make([]float64, n), late: make([]float64, n), wait: make([]float64, n)}
	interval := time.Duration(float64(time.Second) / o.rate)
	ch := make(chan arrival, maxBacklog)
	// Sized to the number of arrivals, so a sender never waits on the
	// verifier.
	checks := make(chan verdict, n)
	verified := make(chan struct{})
	go func() {
		defer close(verified)
		for v := range checks {
			if !v.check() {
				res.lat[v.i] = math.Inf(1)
				res.fromDue[v.i] = math.Inf(1)
			}
		}
	}()
	var wg sync.WaitGroup

	runtime.GC()
	heap := startHeapSampler()
	snap := snapshot()
	start := time.Now()
	for c := 0; c < o.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start // since when this sender has been idle
			for a := range ch {
				res.wait[a.i] = ms(time.Since(a.due))
				backlog := max(0, free.Sub(a.released))
				rt, check := o.send(a.i)
				free = time.Now()
				if check == nil {
					res.lat[a.i] = math.Inf(1)
					res.fromDue[a.i] = math.Inf(1)
					continue
				}
				res.lat[a.i] = ms(rt + backlog)
				res.fromDue[a.i] = ms(free.Sub(a.due))
				checks <- verdict{a.i, check}
			}
		}()
	}
	// The dispatcher sleeps in nanosleep on its own OS thread: the
	// runtime's timers wake up to a millisecond late on some hosts,
	// which would release every arrival that much late.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil)
		}
		released := time.Now()
		res.late[i] = ms(released.Sub(due))
		select {
		case ch <- arrival{i, due, released}:
		default:
			res.shed++
			res.lat[i] = math.Inf(1)
			res.fromDue[i] = math.Inf(1)
		}
	}
	close(ch)
	wg.Wait()
	res.elapsed = time.Since(start)
	close(checks)
	<-verified
	res.usage = since(snap)
	res.peakMB, res.heapMB = heap.finish()
	return res
}

// completed counts the arrivals that were answered correctly.
func (r loadResult) completed() int {
	n := 0
	for _, l := range r.lat {
		if !math.IsInf(l, 1) {
			n++
		}
	}
	return n
}

// classP50 is the median latency of the arrivals of one request class.
func (r loadResult) classP50(classes []int, class int) (float64, int) {
	var xs []float64
	for i, c := range classes {
		if c == class && i < len(r.lat) {
			xs = append(xs, r.lat[i])
		}
	}
	return median(xs), len(xs)
}

// latencyWindow is how many consecutive arrivals make one window of
// the latency percentiles: enough that a window's p90 has ten samples
// beyond it.
const latencyWindow = 100

// openLoopMetrics fills the end-to-end metrics of an open-loop run.
// The latency percentiles (p50 among the metrics, p90 in the report)
// are medians over windows of consecutive arrivals of each window's
// percentile: a stall that spoils a few windows (a GC cycle meeting an
// expensive module, a host hiccup) moves the whole run's tail a lot
// but the typical window's little.
func openLoopMetrics(out *outcome, r loadResult, classes []int) {
	n := r.completed()
	w := latencyWindow
	out.metrics["latency_p50_ms"] = windowed(r.lat, w, 0.5)
	endToEndMetrics(out, r.usage, n, r.peakMB)
	out.info["answered_per_s"] = float64(n) / r.elapsed.Seconds()
	out.info["latency_windows"] = len(r.lat) / w
	out.info["latency_window_samples"] = w
	out.info["whole_run_p50_ms"] = quantile(r.lat, 0.5)
	out.info["whole_run_p90_ms"] = quantile(r.lat, 0.9)
	out.info["latency_p90_ms"] = windowed(r.lat, w, 0.9)
	out.info["whole_run_samples"] = len(r.lat)
	out.info["from_due_p50_ms"] = windowed(r.fromDue, w, 0.5)
	out.info["from_due_p90_ms"] = windowed(r.fromDue, w, 0.9)
	out.info["late_p90_ms"] = quantile(r.late, 0.9)
	out.info["wait_p90_ms"] = quantile(r.wait, 0.9)
	out.info["shed"] = r.shed
	classInfo(out.info, r, classes)
}

// classInfo records each request class's median latency and sample
// count in the report.
func classInfo(info map[string]any, r loadResult, classes []int) {
	for c, name := range classNames {
		p50, n := r.classP50(classes, c)
		if n > 0 {
			info[name+"_p50_ms"] = p50
			info[name+"_samples"] = n
		}
	}
}

// loadgenMetrics fills the generator's ledger entries from an
// untraced arm.
func loadgenMetrics(out *outcome, r loadResult, classes []int) {
	out.metrics["loadgen.latency_p90_ms"] = windowed(r.lat, latencyWindow, 0.9)
	out.metrics["loadgen.late_p90_ms"] = quantile(r.late, 0.9)
	out.metrics["loadgen.shed"] = float64(r.shed)
	for c, name := range classNames {
		p50, _ := r.classP50(classes, c)
		out.metrics["loadgen."+name+"_p50_ms"] = p50
	}
	runtimeMetrics(out, r.usage, r.completed(), r.heapMB)
	classInfo(out.info, r, classes)
}

// windowed is the median over consecutive windows of w samples of
// each window's q-quantile (the whole sample's when it is shorter than
// one window).
func windowed(xs []float64, w int, q float64) float64 {
	if len(xs) < w || w <= 0 {
		return quantile(xs, q)
	}
	var qs []float64
	for i := 0; i+w <= len(xs); i += w {
		qs = append(qs, quantile(xs[i:i+w], q))
	}
	return median(qs)
}
