package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The golden files hold, for goldenSeed, the exact simulated statistics of
// every workload at both scales. They are compiled in, so the check does not
// depend on the working directory.
//
//go:embed golden/*.json
var goldenFS embed.FS

const goldenSeed = 1

type goldenFile struct {
	Workload string   `json:"workload"`
	Scale    string   `json:"scale"`
	Seed     uint64   `json:"seed"`
	Stats    simStats `json:"stats"`
}

func goldenName(scaleName, workload string) string {
	if scaleName == "full" {
		return workload + ".json"
	}
	return scaleName + "-" + workload + ".json"
}

// checkGolden compares a run's simulated statistics with the golden file.
// A mismatch fails the run: a change that speeds the simulator must leave
// every simulated statistic identical.
func checkGolden(o *outcome, e *env, workload string) {
	if e.seed != goldenSeed {
		return
	}
	name := goldenName(e.sc.name, workload)
	b, err := goldenFS.ReadFile("golden/" + name)
	if err != nil {
		o.problemf("no golden file %s (run with -update-golden to write it)", name)
		return
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		o.problemf("golden file %s: %v", name, err)
		return
	}
	if g.Stats != o.Stats {
		o.problemf("simulated statistics differ from golden %s:\n  got  %+v\n  want %+v", name, o.Stats, g.Stats)
	}
}

// writeGolden records a run's statistics as the new golden file.
func writeGolden(dir string, o *outcome, e *env, workload string) error {
	if e.seed != goldenSeed {
		return fmt.Errorf("goldens are kept for seed %d only", goldenSeed)
	}
	b, err := json.MarshalIndent(goldenFile{Workload: workload, Scale: e.sc.name, Seed: e.seed, Stats: o.Stats}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, goldenName(e.sc.name, workload)), append(b, '\n'), 0o644)
}
