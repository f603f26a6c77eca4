package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// profileFlags is the shared -cpuprofile/-memprofile/-exectrace flag
// group: long-running subcommands (sweep, serve, load) register it so a
// production-scale run can be profiled with the standard Go tooling
// without a benchmark harness around it. The files are written with the
// stock runtime/pprof and runtime/trace encoders, so `go tool pprof`
// and `go tool trace` load them directly. (The execution trace is
// spelled -exectrace because sweep's -trace already means "replay a
// recorded workload trace".)
type profileFlags struct {
	cpu, mem, trace string
}

func registerProfileFlags(fs *flag.FlagSet) *profileFlags {
	p := &profileFlags{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&p.mem, "memprofile", "", "write an end-of-run allocation profile to this file (go tool pprof)")
	fs.StringVar(&p.trace, "exectrace", "", "write a runtime execution trace of the run to this file (go tool trace)")
	return p
}

// start begins the requested profiles and returns the function that
// finishes them: it stops the CPU profile and trace, then captures the
// heap profile (after a final GC, so it reflects live data rather than
// garbage). The caller must invoke stop exactly once, on every path —
// an abandoned CPU profile file is truncated and unreadable.
func (p *profileFlags) start() (stop func() error, err error) {
	var cpuF, traceF *os.File
	if p.cpu != "" {
		if cpuF, err = os.Create(p.cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if p.trace != "" {
		if traceF, err = os.Create(p.trace); err != nil {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			return nil, err
		}
		if err = trace.Start(traceF); err != nil {
			traceF.Close()
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			return nil, fmt.Errorf("-trace: %w", err)
		}
	}
	return func() error {
		var firstErr error
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				firstErr = err
			}
		}
		if traceF != nil {
			trace.Stop()
			if err := traceF.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if p.mem != "" {
			f, err := os.Create(p.mem)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("-memprofile: %w", err)
				}
				if err := f.Close(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		return firstErr
	}, nil
}
