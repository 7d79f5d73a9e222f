package main

import (
	"strings"
	"testing"

	"rsti/internal/core"
)

// TestClusterDriveSmoke is the CI-sized cluster drive: a 3-peer fleet
// under a small repeated-source workload must share compiles across the
// ring (high cache-share rate, ~one compile per program fleet-wide) and
// pass the cold-restart phase — zero compiles, one instrumentation pass
// per instrumented flavour, bit-identical matrix — under the race
// detector.
func TestClusterDriveSmoke(t *testing.T) {
	cfg := clusterConfig{
		Peers:       3,
		Sessions:    90,
		Concurrency: 8,
		Workers:     2,
		Programs:    3,
		Mechanisms:  []string{"none", "rsti-stwc", "rsti-stl"},
		CacheRoot:   t.TempDir(),
	}
	rec, err := driveCluster(cfg)
	if err != nil {
		t.Fatalf("driveCluster: %v", err)
	}
	if rec.Errors != 0 {
		t.Fatalf("cluster drive not clean: %d errors", rec.Errors)
	}
	// 3 programs over 90 sessions x 3 peers: every program compiles at
	// most once fleet-wide (the cross-node singleflight under load may
	// lose a race to a concurrent local fallback, so allow < 2x, not
	// exactly 1x — the strict ==1 contract is pinned by the service
	// integration test under controlled concurrency).
	if rec.ClusterCompiles > int64(2*cfg.Programs) {
		t.Errorf("fleet ran %d compiles for %d programs", rec.ClusterCompiles, cfg.Programs)
	}
	if rec.CacheShareRate < 0.9 {
		t.Errorf("cache-share rate %.3f, want >= 0.9 on a repeated-source workload", rec.CacheShareRate)
	}
	if rec.ColdRestartCompiles != 0 {
		t.Errorf("cold restart ran %d compiles, want 0", rec.ColdRestartCompiles)
	}
	// Every standard flavour but the uninstrumented baseline, per program.
	if want := int64(cfg.Programs * (len(core.StandardFlavors()) - 1)); rec.ColdRestartInstrumentations != want {
		t.Errorf("cold restart ran %d instrumentation passes, want %d", rec.ColdRestartInstrumentations, want)
	}
	if !rec.ColdRestartBitIdentical {
		t.Error("cold restart matrix diverged from the in-process reference")
	}
	if want := cfg.Programs * len(matrixMechs) * 2; rec.ColdRestartMatrixRuns != want {
		t.Errorf("cold restart ran %d matrix cells, want %d", rec.ColdRestartMatrixRuns, want)
	}
	if rec.ColdRestartFirstRunMs <= 0 {
		t.Errorf("cold restart first-run latency not recorded: %+v", rec.ColdRestartFirstRunMs)
	}
	if s := rec.Summary(); !strings.Contains(s, "cluster load test:") ||
		!strings.Contains(s, "cold restart:") {
		t.Errorf("summary rendering: %q", s)
	}
}
