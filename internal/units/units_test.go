package units

import (
	"math"
	"testing"
	"time"
)

func TestRateConstructorsAndAccessors(t *testing.T) {
	if got := Mbps(300).Mbps(); got != 300 {
		t.Errorf("Mbps round trip = %v, want 300", got)
	}
	if got := Gbps(1).Gbps(); got != 1 {
		t.Errorf("Gbps round trip = %v, want 1", got)
	}
	if Gbps(1) != Mbps(1000) {
		t.Errorf("1 Gbit/s != 1000 Mbit/s")
	}
}

func TestRateString(t *testing.T) {
	cases := []struct {
		r    Rate
		want string
	}{
		{Gbps(1.5), "1.50 Gbit/s"},
		{Mbps(300), "300.0 Mbit/s"},
		{Rate(2500), "2.5 Kbit/s"},
		{Rate(12), "12 bit/s"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Rate(%v).String() = %q, want %q", float64(c.r), got, c.want)
		}
	}
}

func TestByteSizeString(t *testing.T) {
	cases := []struct {
		b    ByteSize
		want string
	}{
		{2 * Gigabyte, "2.00 GB"},
		{100 * Megabyte, "100.0 MB"},
		{1500, "1.5 KB"},
		{99, "99 B"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("ByteSize(%d).String() = %q, want %q", int64(c.b), got, c.want)
		}
	}
}

func TestSecondsClamps(t *testing.T) {
	if got := Seconds(math.Inf(1)); got != time.Duration(1<<63-1) {
		t.Errorf("Seconds(+Inf) = %v, want max", got)
	}
	if got := Seconds(-math.Inf(1)); got != -time.Duration(1<<63-1) {
		t.Errorf("Seconds(-Inf) = %v, want min", got)
	}
	if got := Seconds(1.5); got != 1500*time.Millisecond {
		t.Errorf("Seconds(1.5) = %v, want 1.5s", got)
	}
}
