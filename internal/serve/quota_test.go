package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fakeClock is a settable time source for the limiter.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func newFakeQuotas(rate float64, burst int) (*quotas, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1e9, 0)}
	q := newQuotas(rate, burst)
	q.now = clk.now
	return q, clk
}

// TestQuotaTableBounded sends one request from each of 100,000 tenants,
// one every millisecond: with a 1 s refill, only about 1,000 buckets
// differ from an absent one at any time, so the map must stay within a
// small multiple of that rather than keep every tenant ever seen.
func TestQuotaTableBounded(t *testing.T) {
	q, clk := newFakeQuotas(2, 2)
	peak := 0
	for i := 0; i < 100000; i++ {
		if !q.allow(fmt.Sprintf("tenant-%d", i)) {
			t.Fatalf("tenant %d's first request was refused", i)
		}
		peak = max(peak, len(q.buckets))
		clk.t = clk.t.Add(time.Millisecond)
	}
	if peak > 4000 {
		t.Errorf("bucket map peaked at %d entries for 100,000 one-request tenants, want <= 4,000", peak)
	}
}

// referenceQuotas is the limiter without sweeps: every tenant keeps its
// bucket forever.
type referenceQuotas struct {
	rate, burst float64
	buckets     map[string]*bucket
}

func (q *referenceQuotas) allow(tenant string, now time.Time) bool {
	b, ok := q.buckets[tenant]
	if !ok {
		b = &bucket{tokens: q.burst, last: now}
		q.buckets[tenant] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * q.rate
		if b.tokens > q.burst {
			b.tokens = q.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// TestQuotaSweepKeepsDecisions replays seeded random traces — a few hot
// tenants over quota, a long tail of rare ones, bursts at one instant
// and gaps longer than a refill — through the sweeping limiter and one
// that never sweeps, and requires the same decision on every request.
func TestQuotaSweepKeepsDecisions(t *testing.T) {
	for _, cfg := range []struct {
		rate  float64
		burst int
	}{{1, 1}, {2, 3}, {0.3, 5}, {50, 2}} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			q, clk := newFakeQuotas(cfg.rate, cfg.burst)
			ref := &referenceQuotas{rate: cfg.rate, burst: float64(cfg.burst), buckets: map[string]*bucket{}}
			shrinks, granted, refused := 0, 0, 0
			for i := 0; i < 50000; i++ {
				var tenant string
				if rng.Intn(4) == 0 {
					tenant = fmt.Sprintf("hot-%d", rng.Intn(4))
				} else {
					tenant = fmt.Sprintf("tail-%d", rng.Intn(20000))
				}
				switch r := rng.Intn(100); {
				case r < 30: // same instant
				case r < 99:
					clk.t = clk.t.Add(time.Duration(rng.Intn(5000)) * time.Microsecond)
				default:
					clk.t = clk.t.Add(time.Duration(rng.Intn(10)) * time.Second)
				}
				before := len(q.buckets)
				got, want := q.allow(tenant), ref.allow(tenant, clk.t)
				if got != want {
					t.Fatalf("rate %v burst %d seed %d: request %d from %s: allow = %v, unswept limiter says %v",
						cfg.rate, cfg.burst, seed, i, tenant, got, want)
				}
				if len(q.buckets) < before {
					shrinks++
				}
				if got {
					granted++
				} else {
					refused++
				}
			}
			if shrinks == 0 || granted == 0 || refused == 0 {
				t.Errorf("rate %v burst %d seed %d: the map shrank %d times, %d grants, %d refusals; want all non-zero",
					cfg.rate, cfg.burst, seed, shrinks, granted, refused)
			}
		}
	}
}

// TestQuotaRejectedTenantsBounded rejects 1,000 distinct tenants once
// each: the rejection counter must keep at most maxTenantLabels tenant
// series plus tenant="other", and still count every rejection.
func TestQuotaRejectedTenantsBounded(t *testing.T) {
	s := New(Config{QuotaRate: 0.001, QuotaBurst: 1})
	s.quota.now = (&fakeClock{t: time.Unix(1e9, 0)}).now
	const tenants = 1000
	for i := 0; i < tenants; i++ {
		for k := 0; k < 2; k++ { // the first request spends the burst
			req := httptest.NewRequest(http.MethodPost, "/v1/place", nil)
			req.Header.Set("X-Choreo-Tenant", fmt.Sprintf("tenant-%d", i))
			if admitted := s.admit(httptest.NewRecorder(), req); admitted != (k == 0) {
				t.Fatalf("tenant %d request %d: admitted = %v", i, k, admitted)
			}
		}
	}
	var expo bytes.Buffer
	if err := s.Obs().Registry().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	series, sum := 0, 0.0
	for _, ln := range strings.Split(expo.String(), "\n") {
		if !strings.HasPrefix(ln, "choreo_quota_rejected_total{") {
			continue
		}
		series++
		v, err := strconv.ParseFloat(ln[strings.LastIndexByte(ln, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", ln, err)
		}
		sum += v
	}
	if series > maxTenantLabels+1 {
		t.Errorf("%d rejected-tenant series, want at most %d", series, maxTenantLabels+1)
	}
	if sum != tenants {
		t.Errorf("rejections sum to %v, want %d", sum, tenants)
	}
	if !strings.Contains(expo.String(), `choreo_quota_rejected_total{tenant="other"} 900`) {
		t.Errorf("overflow tenants not counted under tenant=\"other\"")
	}
}
