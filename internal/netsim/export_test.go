package netsim

import "time"

// AvailabilityReference exposes the probe-flow reference to the external
// tests.
var AvailabilityReference = availabilityReference

// FlowStarted returns the simulation time f started.
func FlowStarted(f *Flow) time.Duration { return f.started }
