package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
)

// repResult is what one repetition measured. Host fields are noisy and
// compared with a bound; virtual fields and counts are exact and must
// repeat for a seed.
type repResult struct {
	ops, failed int64 // timed client ops, and how many were wrong

	setupS       float64 // host: rep start → gate open
	wallNS       int64   // host: first client op → last reply
	cpuNS, sysNS int64   // host: getrusage user+sys, and sys alone
	mallocs      uint64
	allocBytes   uint64
	gcCycles     int64

	makespanNS int64 // virtual: first client op → last reply
	virt       virtual
	latSumNS   int64
	counts     map[string]int64
	final      string // final stage/version per group

	traced *tracedResult
	export func() (trace []byte, folded string, err error)
}

// hist is the part of a virtual-clock histogram the benchmark reports.
type hist struct{ count, sumNS, p99NS int64 }

func (h hist) meanNS() float64 { return ratio(float64(h.sumNS), float64(h.count)) }

// tracedResult is what only the traced repetition can see: recorder
// counters and histograms and the sysabi shim's counts ("obs:<name>" and
// "shim:<name>" in window), the profiler's activity totals and the
// per-role host-time ledger.
type tracedResult struct {
	window     map[string]int64 // counters over the timed section only
	whole      map[string]int64 // recorder counters from the repetition's start to the last reply
	hists      map[string]hist
	activityNS map[string]int64 // "<cpu|off>:<leaf label>" → virtual ns, timed section
	busyNS     int64            // Σ shards: profiler busy time in the timed section
	spanNS     int64            // Σ shards: virtual length of the timed section
	roleNS     [numRoles]int64  // host ns between dispatches, by role of the task run

	spansDropped, traceDropped int64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []int64, q float64) int64 {
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// quartiles returns the first quartile, the median and the third
// quartile the way Python's statistics.quantiles(n=4) does (exclusive
// method), the definition the benchmark contract's spreads use.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j) // after clamping: short inputs extrapolate, as Python's do
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// virtual summarises a repetition's exact end-to-end numbers.
type virtual struct {
	opsPerS, meanUS, p50US, p999US, maxUS float64
}

// summarize folds the sorted per-op virtual latencies into the exact
// end-to-end numbers; the samples themselves are not kept.
func (r *repResult) summarize(sorted []int64) {
	r.virt = virtual{
		opsPerS: ratio(float64(r.ops)*1e9, float64(r.makespanNS)),
		p50US:   float64(quantile(sorted, 0.50)) / 1e3,
		p999US:  float64(quantile(sorted, 0.999)) / 1e3,
		maxUS:   float64(sorted[len(sorted)-1]) / 1e3,
	}
	for _, l := range sorted {
		r.latSumNS += l
	}
	r.virt.meanUS = float64(r.latSumNS) / float64(len(sorted)) / 1e3
}

// digest hashes every exact field of a repetition: two repetitions, two
// runs or two commits simulated the same thing iff their digests match.
func (r *repResult) digest() string {
	lines := []string{r.describe()}
	names := make([]string, 0, len(r.counts))
	for n := range r.counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("%s=%d", n, r.counts[n]))
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(lines, "\n"))))[:16]
}

// describe lists the exact end-to-end fields, for the digest and for
// the error printed when two repetitions disagree.
func (r *repResult) describe() string {
	return fmt.Sprintf("ops=%d failed=%d makespan=%dns lat_sum=%dns p50=%vus p999=%vus max=%vus final=%s",
		r.ops, r.failed, r.makespanNS, r.latSumNS, r.virt.p50US, r.virt.p999US, r.virt.maxUS, r.final)
}
