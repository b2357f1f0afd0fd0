package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// openFDs counts the process's open file descriptors.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}

// minLiveFDs is what live3 needs: livenet leaks one descriptor per
// client request, and a child serves 10,000 of them after warm-up.
const minLiveFDs = 16384

// raiseFDLimit lifts RLIMIT_NOFILE's soft limit to the hard limit and
// returns the result.
func raiseFDLimit() (uint64, error) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return 0, fmt.Errorf("getrlimit: %w", err)
	}
	if lim.Cur < lim.Max {
		lim.Cur = lim.Max
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
			return 0, fmt.Errorf("setrlimit: %w", err)
		}
	}
	return lim.Cur, nil
}

// environment is what the pre-flight records about the machine and build.
type environment struct {
	NProc   int    `json:"nproc"`
	Go      string `json:"go"`
	Commit  string `json:"commit"`
	FDLimit uint64 `json:"fd_limit"`
}

// preflight refuses a process environment that would change what a user
// of reproduce gets by default, raises the descriptor limit, and records
// where the numbers were taken.
func preflight() (environment, error) {
	for _, v := range []string{"GOGC", "GOMAXPROCS", "GODEBUG", "GOMEMLIMIT"} {
		if os.Getenv(v) != "" {
			return environment{}, fmt.Errorf("pre-flight: %s is set; pressbench measures the runtime's defaults, unset it", v)
		}
	}
	env := environment{NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	lim, err := raiseFDLimit()
	if err != nil {
		return env, fmt.Errorf("pre-flight: %w", err)
	}
	env.FDLimit = lim
	return env, nil
}

// memCounters is the slice of runtime.MemStats the layer metrics use.
type memCounters struct {
	mallocs uint64
	numGC   uint32
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{mallocs: m.Mallocs, numGC: m.NumGC}
}

// liveHeapMB forces a collection and returns the heap still in use;
// whatever the caller keeps referenced is what it measures.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}
