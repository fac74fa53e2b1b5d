package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// runtimeSample is a snapshot of the Go runtime's allocation and CPU
// counters.
type runtimeSample struct {
	allocs          uint64  // heap objects allocated
	gcCPU, totalCPU float64 // CPU seconds spent in GC, and overall
}

var runtimeKeys = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	return runtimeSample{allocs: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// runtimeDelta is what the runtime did between two samples.
type runtimeDelta struct {
	allocs float64
	gcFrac float64 // share of CPU time spent in GC
}

func (s runtimeSample) since(from runtimeSample) runtimeDelta {
	d := runtimeDelta{allocs: float64(s.allocs - from.allocs)}
	if cpu := s.totalCPU - from.totalCPU; cpu > 0 {
		d.gcFrac = (s.gcCPU - from.gcCPU) / cpu
	}
	return d
}

// residentBytes is the memory the Go runtime holds from the OS: everything
// it has mapped, minus heap pages it has returned.
func residentBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// processCPU is the user plus system CPU time the process has used. Time the
// hypervisor steals from the guest is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
