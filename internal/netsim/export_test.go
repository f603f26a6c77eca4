package netsim

// AvailabilityReference exposes the probe-flow reference to the external
// tests.
var AvailabilityReference = availabilityReference
