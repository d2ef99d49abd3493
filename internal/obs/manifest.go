package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/debug"
)

// Manifest is the per-run provenance record cmd/experiments writes next to
// its CSVs (results/manifest.json): everything needed to reproduce or
// audit a run — configuration, seeds, toolchain and VCS revision, per-cell
// timings, cache traffic, and the final metric snapshot. Fields that are
// inherently non-deterministic (timestamps, wall times, host toolchain)
// are separated from the deterministic ones so golden tests can pin the
// latter.
type Manifest struct {
	// SchemaVersion identifies the manifest layout; bump on breaking
	// changes.
	SchemaVersion int `json:"schema_version"`
	// CreatedAt is the RFC 3339 wall-clock time the run finished.
	// Non-deterministic.
	CreatedAt string `json:"created_at,omitempty"`
	// GoVersion is runtime.Version(). Non-deterministic across hosts.
	GoVersion string `json:"go_version,omitempty"`
	// GitRevision is the VCS revision baked into the binary ("unknown"
	// outside a stamped build). Non-deterministic across commits.
	GitRevision string `json:"git_revision,omitempty"`
	// Command is the invocation (os.Args). Deterministic for a fixed
	// command line.
	Command []string `json:"command,omitempty"`
	// Config maps effective settings (flag name → value) for the run.
	Config map[string]string `json:"config,omitempty"`
	// Seed is the master seed.
	Seed uint64 `json:"seed"`
	// Figures lists the figure IDs rendered, sorted.
	Figures []string `json:"figures,omitempty"`
	// Cells holds one record per grid-cell progress event but start, in
	// emission order. Scenario/N/Seed/State are deterministic; ElapsedMS is
	// not.
	Cells []CellTiming `json:"cells"`
	// Cache is the scheduler's cache traffic, matching the printed
	// summary.
	Cache CacheCounts `json:"cache"`
	// Outcomes counts cells per final outcome ("ok", "cached", "resumed",
	// "retried", "quarantined", "cancelled", "failed"). A cell that
	// succeeded after retries counts as "retried", not "ok".
	Outcomes map[string]int `json:"outcomes,omitempty"`
	// Interrupted is true when the run was cancelled (SIGINT/SIGTERM)
	// before completing; the manifest then describes a partial run that a
	// -resume invocation can finish.
	Interrupted bool `json:"interrupted,omitempty"`
	// Journal is the path of the cell checkpoint journal, when one was
	// written; JournalCells is how many checkpoints this run appended.
	Journal      string `json:"journal,omitempty"`
	JournalCells int    `json:"journal_cells,omitempty"`
	// Counters is the final metric snapshot (Metrics.Snapshot).
	Counters map[string]float64 `json:"counters,omitempty"`
	// WallSeconds is the total run wall time. Non-deterministic.
	WallSeconds float64 `json:"wall_seconds,omitempty"`
}

// CellTiming is the one JSON form of a scheduler cell event
// (core.CellStatus.Record): the /progress "cell" payload, a -log-format json
// line and, for every state but start, a manifest entry.
type CellTiming struct {
	Scenario string `json:"scenario"`
	N        int    `json:"n"`
	// Seed is the cell's effective topology seed.
	Seed uint64 `json:"seed"`
	// State is "start", "done", "cached", "failed", "resumed", "retried",
	// "quarantined" or "cancelled".
	State string `json:"state"`
	// Attempt is the number of computation attempts made so far (see
	// core.CellStatus.Attempt); omitted for events that never computed.
	Attempt int `json:"attempt,omitempty"`
	// ElapsedMS is the computation (or cache-wait) wall time.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Err carries the failure message for failed cells.
	Err string `json:"err,omitempty"`
}

// CacheCounts mirrors the experiment scheduler's cache statistics.
type CacheCounts struct {
	Hits      int `json:"hits"`
	Misses    int `json:"misses"`
	Evictions int `json:"evictions"`
	// Fault-tolerance traffic; zero on a clean uncancelled run.
	Resumed     int `json:"resumed,omitempty"`
	Retries     int `json:"retries,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	Cancelled   int `json:"cancelled,omitempty"`
}

// ManifestSchemaVersion is the current Manifest layout version. Version 2
// made each cell entry the scheduler's cell record: "attempts" (set above 1)
// became "attempt" (set on every computed cell).
const ManifestSchemaVersion = 2

// MarshalIndented renders the manifest as stable, indented JSON (map keys
// sorted by encoding/json), the exact bytes WriteFile stores.
func (mf *Manifest) MarshalIndented() ([]byte, error) {
	b, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the manifest to path, creating parent directories. The
// write goes through a temp file + rename so a crashed run never leaves a
// truncated manifest behind.
func (mf *Manifest) WriteFile(path string) error {
	b, err := mf.MarshalIndented()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadManifest loads a manifest written by WriteFile.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mf Manifest
	if err := json.Unmarshal(b, &mf); err != nil {
		return nil, err
	}
	return &mf, nil
}

// GitRevision returns the VCS revision embedded by the Go toolchain
// ("unknown" when the build was not stamped, e.g. `go test` or a build
// outside a repository). A "+dirty" suffix marks uncommitted changes.
func GitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
