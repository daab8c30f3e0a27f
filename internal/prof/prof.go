// Package prof is the -cpuprofile / -memprofile pair of the commands.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start starts the CPU profile, if one was asked for, and returns the
// function that ends it and writes the allocation profile.  Empty paths ask
// for nothing; read the files with `go tool pprof`.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("allocation profile: %w", err)
		}
		runtime.GC() // so the profile holds every allocation of the run
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("allocation profile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("allocation profile: %w", err)
		}
		return nil
	}, nil
}
