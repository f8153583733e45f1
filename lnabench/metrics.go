package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's schema; BENCHMARK.json lists the same
// names (the smoke test holds them equal).
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees, reported by
// every workload with tracing off. Neither a tail percentile nor
// throughput is among them: on a virtual machine, hypervisor steal
// preempts whichever requests are in flight and takes its share of a
// saturated closed loop, so from run to run those follow the host
// more than the program. Both are in every report.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"alloc_kb_per_req", "kB"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the traced run's metrics. Busy times, bytes and counts
// are medians per request (per module in corpus_batch); a layer the
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"lexer.busy_us", "us"},
	{"lexer.tokens", "count"},
	{"lexer.alloc_kb", "kB"},
	{"parser.busy_us", "us"},
	{"parser.alloc_kb", "kB"},
	{"types.busy_us", "us"},
	{"types.alloc_kb", "kB"},
	{"infer.busy_us", "us"},
	{"infer.alloc_kb", "kB"},
	{"infer.constraints", "count"},
	{"solve.busy_us", "us"},
	{"solve.alloc_kb", "kB"},
	{"solve.atoms_propagated", "count"},
	{"solve.memo_replay_ratio", "ratio"},
	{"confine.busy_us", "us"},
	{"confine.alloc_kb", "kB"},
	{"confine.planted", "count"},
	{"confine.kept_ratio", "ratio"},
	{"confine.overhead_ratio", "ratio"},
	{"qual.busy_us", "us"},
	{"qual.alloc_kb", "kB"},
	{"funcidx.busy_us", "us"},
	{"funcidx.alloc_kb", "kB"},
	{"service.decode_us", "us"},
	{"service.cachekey_us", "us"},
	{"service.marshal_us", "us"},
	{"service.server_us", "us"},
	{"service.engine_us", "us"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.refused", "count"},
	{"client.transport_us", "us"},
	{"gateway.relay_us", "us"},
	{"gateway.attempts_per_req", "count"},
	{"gateway.affinity_hit_ratio", "ratio"},
	{"modgraph.busy_us", "us"},
	{"modgraph.modules", "count"},
	{"runtime.gc_cycles_per_1k_req", "count"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
	{"runtime.heap_live_mb", "MB"},
	{"loadgen.latency_p90_ms", "ms"},
	{"loadgen.late_p90_ms", "ms"},
	{"loadgen.shed", "count"},
	{"loadgen.cold_p50_ms", "ms"},
	{"loadgen.edit_p50_ms", "ms"},
	{"loadgen.resave_p50_ms", "ms"},
	{"loadgen.hit_p50_ms", "ms"},
	{"ledger.samples", "count"},
	{"ledger.unattributed_share", "ratio"},
	{"ledger.trace_overhead_share", "ratio"},
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs need not be sorted; it is not modified).
// An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// A run sets its workload up at least setupRepeats times, and goes on
// until setupBudget has passed or it has set up setupMaxRepeats times;
// setup_s is the median. Set-up takes milliseconds, so the median of
// many keeps one descheduled set-up from moving the figure.
const (
	setupRepeats    = 9
	setupMaxRepeats = 201
	setupBudget     = time.Second
)

// medianSetup sets up repeatedly (see setupRepeats) and returns the
// last result (the one the workload uses) and the median duration in
// seconds; the earlier results are released with drop.
func medianSetup[T any](setup func() (T, error), drop func(T)) (T, float64, error) {
	var zero T
	var times []float64
	var last T
	start := time.Now()
	for i := 0; i < setupMaxRepeats && (i < setupRepeats || time.Since(start) < setupBudget); i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i > 0 {
			drop(last)
		}
		last = v
	}
	return last, median(times), nil
}

// procSnap is a point-in-time view of the process's resource use.
type procSnap struct {
	at      time.Time
	cpu     time.Duration
	alloc   uint64
	gcs     uint64
	pauseNs uint64
	host    hostTicks
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func snapshot() procSnap {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	s := make([]metrics.Sample, len(procSamples))
	copy(s, procSamples)
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		at:      time.Now(),
		cpu:     cpu,
		alloc:   s[0].Value.Uint64(),
		gcs:     s[1].Value.Uint64(),
		pauseNs: ms.PauseTotalNs,
		host:    readHostTicks(),
	}
}

// hostTicks are the whole host's CPU time counters from /proc/stat, in
// clock ticks: all of them, and the part the hypervisor gave to other
// guests while this one wanted to run (steal).
type hostTicks struct {
	total, steal uint64
}

// readHostTicks reads the aggregate "cpu" line of /proc/stat; where
// that file is missing it returns zeros, and the steal share reads 0.
func readHostTicks() hostTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostTicks{}
	}
	var t hostTicks
	// user nice system idle iowait irq softirq steal [guest guest_nice],
	// guest time being already counted in user and nice.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// usage is the resource delta between two snapshots.
type usage struct {
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	gcs     uint64
	pauseNs uint64
	// stealShare is the share of the host's CPU time stolen by the
	// hypervisor over the span: interference from outside this
	// machine, recorded so a disturbed run can be told from a slow one.
	stealShare float64
}

func since(a procSnap) usage {
	b := snapshot()
	return usage{
		wall:    b.at.Sub(a.at),
		cpu:     b.cpu - a.cpu,
		alloc:   b.alloc - a.alloc,
		gcs:     b.gcs - a.gcs,
		pauseNs: b.pauseNs - a.pauseNs,
		stealShare: func() float64 {
			if b.host.total <= a.host.total {
				return 0
			}
			return float64(b.host.steal-a.host.steal) / float64(b.host.total-a.host.total)
		}(),
	}
}

// heapSampler polls the live heap (as of the last completed GC) while
// a run is measured, keeping its peak and every sample.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	peak    uint64
	samples []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			h.mu.Lock()
			if v > h.peak {
				h.peak = v
			}
			h.samples = append(h.samples, float64(v))
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak and median live heap
// in MB.
func (h *heapSampler) finish() (peakMB, medianMB float64) {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20), median(h.samples) / (1 << 20)
}

// runtimeMetrics fills the runtime.* ledger entries from one arm's
// usage over n completed requests.
func runtimeMetrics(out *outcome, u usage, n int, heapMedianMB float64) {
	out.metrics["runtime.gc_cycles_per_1k_req"] = 1000 * float64(u.gcs) / float64(max(n, 1))
	out.metrics["runtime.gc_pause_ms_per_s"] = float64(u.pauseNs) / 1e6 / u.wall.Seconds()
	out.metrics["runtime.heap_live_mb"] = heapMedianMB
	out.info["host_steal_share"] = u.stealShare
}

// endToEndMetrics fills the resource metrics every workload reports.
func endToEndMetrics(out *outcome, u usage, n int, peakMB float64) {
	out.metrics["cpu_ms_per_req"] = ms(u.cpu) / float64(max(n, 1))
	out.metrics["alloc_kb_per_req"] = float64(u.alloc) / 1024 / float64(max(n, 1))
	out.metrics["peak_heap_mb"] = peakMB
	out.info["host_steal_share"] = u.stealShare
}
