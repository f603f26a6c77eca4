package sweep

import (
	"fmt"
	"strings"
	"time"
)

// Coord is one scenario's identity: the nine coordinates its result
// line carries. Matching result lines to grid cells by Coord, never by
// file position, is what lets shards merge and interrupted runs resume.
type Coord struct {
	Topology  string `json:"topology"`
	Workload  string `json:"workload"`
	Algorithm string `json:"algorithm"`
	Seed      int64  `json:"seed"`
	VMs       int    `json:"vms"`
	// MeanBytes is the swept mean transfer size the cell's workload was
	// generated with; 0 for trace workloads, which replay recorded sizes.
	MeanBytes int64 `json:"meanBytes"`
	// InterarrivalNs, SeqApps and ReevalNs are a sequence cell's swept
	// arrival-process and migration-policy coordinates (mean Poisson
	// interarrival and §2.4 re-evaluation period in nanoseconds;
	// ReevalNs 0 = no re-evaluation). All zero, and absent from JSON, on
	// snapshot cells, so snapshot result lines are byte-identical to what
	// they were before sequence mode existed.
	InterarrivalNs int64 `json:"interarrivalNs,omitempty"`
	SeqApps        int   `json:"seqApps,omitempty"`
	ReevalNs       int64 `json:"reevalNs,omitempty"`
}

func (c Coord) String() string {
	s := fmt.Sprintf("%s/%s/%s seed %d vms %d meanBytes %d",
		c.Topology, c.Workload, c.Algorithm, c.Seed, c.VMs, c.MeanBytes)
	if c.SeqApps > 0 {
		s += fmt.Sprintf(" interarrival %v apps %d reeval %v",
			time.Duration(c.InterarrivalNs), c.SeqApps, time.Duration(c.ReevalNs))
	}
	return s
}

// Cloud returns the coordinates of c's cloud — topology, workload, VM
// count, mean transfer size and grid seed, exactly what cloudSeed
// mixes. Scenarios with one cloud run on one built and measured cloud,
// the paper's identical-cloud comparison (§6.2, §6.3), so a cloud is
// the unit RunStream builds on one worker and shard.Plan assigns to one
// shard.
func (c Coord) Cloud() Coord {
	return Coord{Topology: c.Topology, Workload: c.Workload, Seed: c.Seed, VMs: c.VMs, MeanBytes: c.MeanBytes}
}

// cell returns the coordinates of c's cell: its cloud plus the arrival
// process (interarrival, sequence length). Scenarios of one cell differ
// only in algorithm and re-evaluation period, and share one application
// or arrival sequence. A snapshot cell is its whole cloud.
func (c Coord) cell() Coord {
	k := c.Cloud()
	k.InterarrivalNs, k.SeqApps = c.InterarrivalNs, c.SeqApps
	return k
}

// cloudSeed derives the deterministic per-cloud seed. It covers every
// cloud coordinate (topology, workload, VM count, transfer size, grid
// seed) but not the algorithm, so every algorithm in a cell group faces
// the identical cloud and application — the comparison the paper's
// Figure 10 makes.
func (c Coord) cloudSeed() int64 {
	const offset64, prime64 = 1469598103934665603, 1099511628211
	h := uint64(offset64)
	mixByte := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			mixByte(s[i])
		}
		mixByte(0xff) // separator so "ab"+"c" != "a"+"bc"
	}
	mixInt := func(v int64) {
		// Fold in bytewise for the same avalanche behaviour.
		for i := 0; i < 8; i++ {
			mixByte(byte(v >> (8 * i)))
		}
	}
	mix(c.Topology)
	mix(c.Workload)
	mixInt(int64(c.VMs))
	mixInt(c.MeanBytes)
	mixInt(c.Seed)
	// The sequence coordinates (interarrival, sequence length,
	// re-evaluation period) are deliberately not mixed in — and not only
	// to keep every snapshot cell's seed (and hence the golden reports)
	// stable. Sequence cells that differ only in those coordinates share
	// one cloud, and GenerateSequence draws the identical applications
	// for any interarrival mean, so sweeping the arrival or migration
	// dimensions is a same-cloud, same-applications comparison — the
	// §6.3 analogue of every algorithm in a cell group facing the
	// identical cloud. The cells stay distinct: Coord.cell keeps the
	// arrival coordinates.
	// Keep it positive and well away from zero for rand.NewSource.
	return int64(h&0x7fffffffffffffff) | 1
}

// tracePrefix starts the name of every trace workload (TraceWorkload)
// and of no generator workload (Grid.Validate), so an echo's expansion
// tells them apart by name.
const tracePrefix = "trace:"

// traceSizes is the transfer-size dimension for trace workloads: traces
// replay recorded transfers, so sweeping the generator's mean size would
// only duplicate identical cells. The single zero entry keeps the cell
// honest (meanBytes 0 = not applicable) and the cloud seed stable.
var traceSizes = []int64{0}

// expand calls f with every scenario of the echoed grid in expansion
// order: topology, workload, VM count, transfer size, interarrival,
// sequence length, re-evaluation period, algorithm, seed — the
// outermost dimension varying slowest. t, w and a index the echo's
// topology, workload and algorithm lists. Snapshot echoes collapse the
// three sequence dimensions to single zero placeholders, and trace
// workloads skip the transfer-size dimension (see traceSizes). This is
// the grid's only expansion: Grid.Expand builds its scenarios with it,
// and Index recovers expansion order from nothing but the echo that
// heads every stream and shard file.
func (s *GridSummary) expand(f func(t, w, a int, c Coord)) {
	inters, seqApps, reevals := []int64{0}, []int{0}, []int64{0}
	if s.Mode == Sequence.String() {
		inters, seqApps, reevals = s.InterarrivalNs, s.SeqApps, s.ReevalNs
	}
	for t, tp := range s.Topologies {
		for w, wl := range s.Workloads {
			sizes := s.MeanBytes
			if strings.HasPrefix(wl, tracePrefix) {
				sizes = traceSizes
			}
			for _, vms := range s.VMCounts {
				for _, size := range sizes {
					for _, inter := range inters {
						for _, apps := range seqApps {
							for _, reeval := range reevals {
								for a, alg := range s.Algorithms {
									for _, seed := range s.Seeds {
										f(t, w, a, Coord{Topology: tp, Workload: wl, Algorithm: alg,
											Seed: seed, VMs: vms, MeanBytes: size,
											InterarrivalNs: inter, SeqApps: apps, ReevalNs: reeval})
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// Index maps every scenario of the echoed grid to its expansion index.
// It fails if the echo repeats a scenario or declares a scenario count
// its dimensions do not expand to.
func (s *GridSummary) Index() (map[Coord]int, error) {
	idx := make(map[Coord]int, s.Scenarios)
	n := 0
	var err error
	s.expand(func(_, _, _ int, c Coord) {
		if _, dup := idx[c]; dup && err == nil {
			err = fmt.Errorf("sweep: grid echo repeats scenario %s", c)
		}
		idx[c] = n
		n++
	})
	if err != nil {
		return nil, err
	}
	if n != s.Scenarios {
		return nil, fmt.Errorf("sweep: grid echo declares %d scenarios but its dimensions expand to %d", s.Scenarios, n)
	}
	return idx, nil
}
