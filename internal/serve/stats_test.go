package serve

import (
	"testing"
	"time"
)

// TestLatencyRingQuantiles pins the /statsz quantiles: nearest-rank
// below p·(n−1) over the recorded window, 0 while the window is empty,
// and only the last latencyWindow latencies once the ring has wrapped.
func TestLatencyRingQuantiles(t *testing.T) {
	check := func(when string, r *latencyRing, p50, p99 time.Duration) {
		t.Helper()
		q := r.quantiles(0.50, 0.99)
		if q[0] != p50 || q[1] != p99 {
			t.Errorf("%s: p50, p99 = %v, %v, want %v, %v", when, q[0], q[1], p50, p99)
		}
	}
	var r latencyRing
	check("empty", &r, 0, 0)

	// 1..100 µs in a scrambled order (37 is prime to 100): p50 is rank
	// int(0.5·99) = 49 and p99 rank int(0.99·99) = 98 of the sorted window.
	for i := 0; i < 100; i++ {
		r.record(time.Duration(i*37%100+1) * time.Microsecond)
	}
	check("before wrap-around", &r, 50*time.Microsecond, 99*time.Microsecond)

	// A ring fed 1..latencyWindow+10 µs keeps only 11..4106, so p50
	// is 11 + int(0.5·4095) and p99 is 11 + int(0.99·4095).
	var wrapped latencyRing
	for i := 1; i <= latencyWindow+10; i++ {
		wrapped.record(time.Duration(i) * time.Microsecond)
	}
	check("after wrap-around", &wrapped, (11+2047)*time.Microsecond, (11+4054)*time.Microsecond)
}
