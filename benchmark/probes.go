package main

import "time"

// probeSample is how long one probe sample runs; a probe takes five, so
// at least 200 ms of measured work, and reports their median.
var probeSample = 40 * time.Millisecond

const probeSamples = 5

func timeN(run func(n int), n int) time.Duration {
	start := time.Now()
	run(n)
	return time.Since(start)
}

// measure sizes the iteration count to fill a sample, then reports the
// median host time per iteration in the probe's unit.
func (p probe) measure() float64 {
	run := p.run
	if p.prepare != nil {
		run = p.prepare()
	}
	n := 1
	for {
		d := timeN(run, n)
		if d >= probeSample/4 {
			n = int(float64(n)*float64(probeSample)/float64(d)) + 1
			break
		}
		n *= 4
	}
	samples := make([]float64, probeSamples)
	for i := range samples {
		samples[i] = float64(timeN(run, n).Nanoseconds()) / float64(n)
	}
	scale := p.scale
	if scale == 0 {
		scale = 1
	}
	return median(samples) * scale
}

// runProbes measures every probe under its own host span.
func runProbes(spans *spanLog, parent int) map[string]float64 {
	out := make(map[string]float64, len(probes))
	for _, p := range probes {
		id := spans.begin("probe."+p.metric, parent)
		out[p.metric] = p.measure()
		spans.end(id)
	}
	return out
}
