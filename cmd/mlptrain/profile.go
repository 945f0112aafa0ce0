package main

import (
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
)

// startProfiles starts a CPU profile written to cpuPath and arranges an
// allocation profile at memPath; an empty path turns that profile off.
// The returned stop writes both, once however often it is called, so the
// normal return and the failure exit can each call it. The allocation
// profile is pprof's "allocs": every sampled allocation since the
// process started (alloc_space, alloc_objects), read with
// `go tool pprof -sample_index=alloc_objects`. No GC is forced first, so
// its in-use figures are as of the last collection.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpu != nil {
				pprof.StopCPUProfile()
				if err := cpu.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "mlptrain: cpuprofile: %v\n", err)
				}
			}
			if memPath != "" {
				if err := writeAllocsProfile(memPath); err != nil {
					fmt.Fprintf(os.Stderr, "mlptrain: memprofile: %v\n", err)
				}
			}
		})
	}, nil
}

func writeAllocsProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
