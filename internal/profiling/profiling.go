// Package profiling is the -cpuprofile, -memprofile and -exectrace flag
// group that every long-running choreo binary registers (choreo's
// sweep, serve and load subcommands, and choreo-agent), so a
// production-scale run can be profiled with the standard Go tooling
// without a benchmark harness around it.
package profiling

import (
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the profile destinations. The files are written with
// the stock runtime/pprof and runtime/trace encoders, so `go tool
// pprof` and `go tool trace` load them directly. (The execution trace
// is spelled -exectrace because sweep's -trace already means "replay a
// recorded workload trace".)
type Flags struct {
	cpu, mem, trace string
}

// Register adds the three flags to fs.
func Register(fs *flag.FlagSet) *Flags {
	p := &Flags{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&p.mem, "memprofile", "", "write an end-of-run allocation profile to this file (go tool pprof)")
	fs.StringVar(&p.trace, "exectrace", "", "write a runtime execution trace of the run to this file (go tool trace)")
	return p
}

// Start begins the requested profiles and returns the function that
// finishes them: it stops the CPU profile and trace, then captures the
// heap profile (after a final GC, so it reflects live data rather than
// garbage). The caller must invoke stop exactly once, on every path —
// an abandoned CPU profile file is truncated and unreadable.
func (p *Flags) Start() (stop func() error, err error) {
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
			return nil, fmt.Errorf("-exectrace: %w", err)
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

// Check reports whether the CPU profile at cpu and the heap profile at
// mem are complete gzip streams and the execution trace at exectrace
// carries its header: a CPU profile that was never stopped is empty.
// Tests use it to pin that a binary finishes its profiles on every
// exit path.
func Check(cpu, mem, exectrace string) error {
	for _, p := range []string{cpu, mem} {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		zr, err := gzip.NewReader(f)
		if err == nil {
			_, err = io.Copy(io.Discard, zr)
		}
		f.Close()
		if err != nil {
			return fmt.Errorf("%s is not a finished profile: %w", p, err)
		}
	}
	data, err := os.ReadFile(exectrace)
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(data, []byte("go 1.")) {
		return fmt.Errorf("%s has no execution-trace header", exectrace)
	}
	return nil
}
