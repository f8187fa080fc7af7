package serve

import (
	"testing"

	"powerrchol"
)

func TestClassifyLadder(t *testing.T) {
	cases := []struct {
		name string
		snap LoadSnapshot
		want Level
	}{
		{"idle", LoadSnapshot{Queued: 0, MaxQueue: 100}, LevelNormal},
		{"light", LoadSnapshot{Queued: 40, MaxQueue: 100}, LevelNormal},
		{"elevated", LoadSnapshot{Queued: 50, MaxQueue: 100}, LevelElevated},
		{"high", LoadSnapshot{Queued: 75, MaxQueue: 100}, LevelHigh},
		{"critical", LoadSnapshot{Queued: 95, MaxQueue: 100}, LevelCritical},
		{"full", LoadSnapshot{Queued: 100, MaxQueue: 100}, LevelCritical},
		{"cache over budget raises to high", LoadSnapshot{Queued: 0, MaxQueue: 100, CacheBytes: 2 << 20, CacheBudget: 1 << 20}, LevelHigh},
		{"cache pressure does not mask critical", LoadSnapshot{Queued: 95, MaxQueue: 100, CacheBytes: 2 << 20, CacheBudget: 1 << 20}, LevelCritical},
		{"zero budget ignores cache", LoadSnapshot{Queued: 0, MaxQueue: 100, CacheBytes: 2 << 20}, LevelNormal},
	}
	for _, tc := range cases {
		if got := Classify(tc.snap); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestLevelAdmit(t *testing.T) {
	for _, l := range []Level{LevelNormal, LevelElevated, LevelHigh} {
		if !l.Admit() {
			t.Errorf("%v should admit", l)
		}
	}
	if LevelCritical.Admit() {
		t.Error("critical should refuse")
	}
}

func TestBatchKnobsDegrade(t *testing.T) {
	if w := LevelNormal.BatchKnobs(32); w != 32 {
		t.Errorf("normal width = %d, want 32", w)
	}
	if w := LevelElevated.BatchKnobs(32); w != 16 {
		t.Errorf("elevated width = %d, want 16", w)
	}
	if w := LevelHigh.BatchKnobs(32); w != 1 {
		t.Errorf("high width = %d, want 1", w)
	}
	// Width never collapses below 1.
	if w := LevelElevated.BatchKnobs(1); w != 1 {
		t.Errorf("elevated width from 1 = %d, want 1", w)
	}
}

func TestCacheTargetAndRetry(t *testing.T) {
	if got := LevelNormal.CacheTarget(100); got != 100 {
		t.Errorf("normal target = %d", got)
	}
	if got := LevelHigh.CacheTarget(100); got != 50 {
		t.Errorf("high target = %d, want 50", got)
	}
	base := powerrchol.RetryPolicy{MaxAttempts: 3, Escalate: true}
	if got := LevelElevated.RetryFor(base); got != base {
		t.Errorf("elevated retry = %+v, want unchanged", got)
	}
	if got := LevelHigh.RetryFor(base); got != (powerrchol.RetryPolicy{}) {
		t.Errorf("high retry = %+v, want zero", got)
	}
}
