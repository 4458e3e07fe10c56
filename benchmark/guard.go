package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// The disturbance guard. On the box this benchmark was written on, the
// same duo run measured 11 µs/op in a quiet process and 44–73 µs/op in
// a disturbed one, so every repetition is bracketed by a fixed pure-CPU
// kernel (≈25 ms): when the bracket runs more than calibTolerance slower than
// the best bracket of the run, something else had the machine and the
// repetition is discarded and repeated.
const (
	calibTolerance = 0.15
	maxDiscards    = 5
)

var calibIters = 12 << 20 // ≈25 ms; the unit test shrinks it

var calibSink uint64

// calibrate runs the fixed kernel and returns how long it took.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return time.Since(start)
}

// rusage is the process's CPU time so far, in nanoseconds.
type rusage struct{ user, sys int64 }

func (r rusage) cpu() int64 { return r.user + r.sys }

func getrusage() rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rusage{}
	}
	return rusage{user: ru.Utime.Nano(), sys: ru.Stime.Nano()}
}

// peakRSSMiB is ru_maxrss (KiB on Linux) so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// fingerprint says what machine and runtime produced the host numbers.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"loadavg_at_start"`
}

func takeFingerprint() fingerprint {
	fp := fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		LoadAvg:    "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				fp.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			fp.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	return fp
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s cpu=%q loadavg=%s",
		fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.CPUModel, fp.LoadAvg)
}
