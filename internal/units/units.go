// Package units defines the physical quantities used throughout Choreo:
// network rates in bits per second, data sizes in bytes, and a clamped
// conversion from seconds to time.Duration.
//
// Rates are kept as float64 bits/second rather than integers because the
// max-min fair allocator divides link capacities into arbitrary fair shares.
package units

import (
	"fmt"
	"time"
)

// Rate is a network rate in bits per second.
type Rate float64

// Convenient rate constants.
const (
	BitPerSecond  Rate = 1
	KbitPerSecond Rate = 1e3
	MbitPerSecond Rate = 1e6
	GbitPerSecond Rate = 1e9
)

// Mbps returns r expressed in Mbit/s.
func (r Rate) Mbps() float64 { return float64(r) / 1e6 }

// Gbps returns r expressed in Gbit/s.
func (r Rate) Gbps() float64 { return float64(r) / 1e9 }

// String formats the rate with an adaptive unit, e.g. "957.0 Mbit/s".
func (r Rate) String() string {
	switch {
	case r >= GbitPerSecond:
		return fmt.Sprintf("%.2f Gbit/s", r.Gbps())
	case r >= MbitPerSecond:
		return fmt.Sprintf("%.1f Mbit/s", r.Mbps())
	case r >= KbitPerSecond:
		return fmt.Sprintf("%.1f Kbit/s", float64(r)/1e3)
	default:
		return fmt.Sprintf("%.0f bit/s", float64(r))
	}
}

// Mbps constructs a Rate from a value in Mbit/s.
func Mbps(v float64) Rate { return Rate(v * 1e6) }

// Gbps constructs a Rate from a value in Gbit/s.
func Gbps(v float64) Rate { return Rate(v * 1e9) }

// ByteSize is a quantity of data in bytes.
type ByteSize int64

// Convenient size constants.
const (
	Byte     ByteSize = 1
	Kilobyte ByteSize = 1e3
	Megabyte ByteSize = 1e6
	Gigabyte ByteSize = 1e9
)

// Bits returns the size in bits.
func (b ByteSize) Bits() float64 { return float64(b) * 8 }

// String formats the size with an adaptive unit, e.g. "100.0 MB".
func (b ByteSize) String() string {
	switch {
	case b >= Gigabyte:
		return fmt.Sprintf("%.2f GB", float64(b)/1e9)
	case b >= Megabyte:
		return fmt.Sprintf("%.1f MB", float64(b)/1e6)
	case b >= Kilobyte:
		return fmt.Sprintf("%.1f KB", float64(b)/1e3)
	default:
		return fmt.Sprintf("%d B", int64(b))
	}
}

// Seconds converts a float64 number of seconds to a time.Duration, clamping
// at the representable maximum so that +Inf transfer times stay ordered.
func Seconds(s float64) time.Duration {
	const maxDur = float64(1<<63 - 1)
	ns := s * 1e9
	if ns >= maxDur {
		return time.Duration(1<<63 - 1)
	}
	if ns <= -maxDur {
		return -time.Duration(1<<63 - 1)
	}
	return time.Duration(ns)
}
