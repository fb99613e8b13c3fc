package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// metricDef is one reported metric. The two lists below are the metric
// sections of BENCHMARK.json, in the same order (a test keeps them equal).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"trials_per_s", "1/s", "higher"},
	{"rounds_per_s", "1/s", "higher"},
	{"alloc_bytes", "B", "lower"},
	{"allocs", "count", "lower"},
	{"peak_rss_bytes", "B", "lower"},
	{"warm_s", "s", "lower"},
	{"cache_bytes", "B", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of a traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"campaign.compile_s", "s", "lower"},
		{"campaign.compile_alloc_bytes", "B", "lower"},
		{"campaign.aggregate_s", "s", "lower"},
		{"campaign.warm_self_s", "s", "lower"},
		{"adversary.build_s", "s", "lower"},
		{"adversary.next_s", "s", "lower"},
	}
	for _, f := range families {
		defs = append(defs, metricDef{"adversary.next_ns_per_round." + f, "ns", "lower"})
	}
	return append(defs, []metricDef{
		{"core.step_s", "s", "lower"},
		{"core.step_ns_per_round", "ns", "lower"},
		{"core.rounds", "count", "higher"},
		{"tree.depth_order_ns_per_round", "ns", "lower"},
		{"cache.put_s", "s", "lower"},
		{"cache.put_bytes", "B", "lower"},
		{"cache.get_s", "s", "lower"},
		{"cache.get_bytes", "B", "lower"},
		{"cache.hits", "count", "higher"},
		{"cache.misses", "count", "lower"},
		{"artifact.write_s", "s", "lower"},
		{"artifact.bytes", "B", "lower"},
		{"cluster.lease_rtt_p50_s", "s", "lower"},
		{"cluster.lease_rtt_tail_s", "s", "lower"},
		{"cluster.lease_rtt_tail_pct", "%", "higher"},
		{"cluster.lease_rtt_samples", "count", "higher"},
		{"cluster.push_rtt_p50_s", "s", "lower"},
		{"cluster.push_rtt_tail_s", "s", "lower"},
		{"cluster.push_rtt_tail_pct", "%", "higher"},
		{"cluster.push_rtt_samples", "count", "higher"},
		{"cluster.push_bytes_per_trial", "B", "lower"},
		{"cluster.requests", "count", "lower"},
		{"cluster.remote_shard_frac", "ratio", "higher"},
		{"cluster.requeued", "count", "lower"},
		{"trace.overhead_s", "s", "lower"},
		{"trace.decorated_overhead_s", "s", "lower"},
	}...)
}()

// samples collects per-iteration values of named metrics.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	return quantile(vs, 0.5)
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (0 for none).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercent is the highest percentile of a ladder that leaves at least
// ten of n samples beyond it, or 50 when there are too few samples for
// any tail.
func tailPercent(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's resident-set high-water mark in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// heapAllocs reads the cumulative heap allocation counters.
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
