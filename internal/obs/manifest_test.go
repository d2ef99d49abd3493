package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenManifest holds only the deterministic manifest fields — no
// timestamps, toolchain versions, revisions, or wall times — so its
// serialized form is stable across hosts and runs.
func goldenManifest() *Manifest {
	return &Manifest{
		SchemaVersion: ManifestSchemaVersion,
		Command:       []string{"experiments", "-fast", "-figs", "4"},
		Config: map[string]string{
			"fast":  "true",
			"figs":  "4",
			"seed":  "42",
			"procs": "4",
		},
		Seed:    42,
		Figures: []string{"4"},
		Cells: []CellTiming{
			{Scenario: "baseline", N: 500, Seed: 542, State: "done", ElapsedMS: 0},
			{Scenario: "baseline", N: 1000, Seed: 1042, State: "cached", ElapsedMS: 0},
			{Scenario: "mrai", N: 500, Seed: 542, State: "failed", ElapsedMS: 0, Err: "boom"},
		},
		Cache: CacheCounts{Hits: 1, Misses: 2, Evictions: 0},
		Counters: map[string]float64{
			"bgpchurn_core_cells_computed_total": 2,
			"bgpchurn_core_cells_failed_total":   1,
		},
	}
}

func TestManifestGolden(t *testing.T) {
	got, err := goldenManifest().MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "manifest.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("manifest drifted from golden (run with -update to regenerate)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestManifestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results", "manifest.json") // parent must be created
	mf := goldenManifest()
	mf.CreatedAt = "2026-01-02T03:04:05Z"
	mf.GoVersion = "go1.22.0"
	mf.GitRevision = "abc123"
	mf.WallSeconds = 1.5
	if err := mf.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != mf.Seed || got.Cache != mf.Cache || len(got.Cells) != len(mf.Cells) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Cells[2].Err != "boom" {
		t.Fatalf("Cells[2].Err = %q, want boom", got.Cells[2].Err)
	}
	// No temp files left behind.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("expected only manifest.json in dir, found %d entries", len(ents))
	}
}

func TestGitRevisionNeverEmpty(t *testing.T) {
	if GitRevision() == "" {
		t.Fatal("GitRevision returned empty string; want revision or \"unknown\"")
	}
}
