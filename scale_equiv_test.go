package bgpchurn

// Differential tier for the compact-RIB engine: enabling CompactRIB swaps
// the RIB representation (interned 32-bit path IDs over CSR slot arrays in
// place of per-node slice maps) but must not change a single observable
// bit. These tests run every growth scenario at paper scales with both
// engines and compare the complete rendered results and the U(X) CSV
// artifacts byte for byte.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bgpchurn/internal/report"
)

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/golden from the current engine")

// checkGolden compares got with testdata/golden/<name>.golden, first writing
// the file when record is set.
func checkGolden(t *testing.T, name string, got []byte, record bool) {
	t.Helper()
	file := filepath.Join("testdata", "golden", name+".golden")
	if record {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("result differs from %s:\n--- got\n%s--- want\n%s", file, got, want)
	}
}

// sweepArtifact renders everything a sweep golden pins: every point's
// complete Result and the U(X) CSV.
func sweepArtifact(sw *SweepResult) []byte {
	return append([]byte(fingerprintSweep(sw)+"--- U(X) CSV\n"), uCSV(sw)...)
}

// compactVariant returns cfg with the interned-path engine selected.
func compactVariant(cfg Experiment) Experiment {
	c := cfg
	c.BGP.CompactRIB = true
	return c
}

// uCSV renders the Fig-4 U(X) table of a sweep as CSV bytes, the artifact
// cmd/experiments emits.
func uCSV(sw *SweepResult) []byte {
	table := report.SeriesTable("U(X) by node type", "n", sw.Sizes(),
		report.Series{Name: "U(T)", Values: sw.SeriesU(T)},
		report.Series{Name: "U(M)", Values: sw.SeriesU(M)},
		report.Series{Name: "U(CP)", Values: sw.SeriesU(CP)},
		report.Series{Name: "U(C)", Values: sw.SeriesU(C)},
	)
	var buf bytes.Buffer
	if err := table.WriteCSV(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestCompactEngineEquivalentAcrossScenarios sweeps every growth model at
// n ∈ {1000, 3000} under two independent seeds and demands the compact
// engine reproduce the classic engine's results and U(X) CSVs exactly.
func TestCompactEngineEquivalentAcrossScenarios(t *testing.T) {
	sizes := []int{1000, 3000}
	for _, sc := range Scenarios() {
		sc := sc
		for _, seed := range []uint64{3, 17} {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed=%d", sc.Name, seed), func(t *testing.T) {
				t.Parallel()
				ev := DefaultExperiment(seed)
				ev.Origins = 4
				for i, e := range []Experiment{ev, compactVariant(ev)} {
					sw, err := Sweep(sc, SweepConfig{Sizes: sizes, TopologySeed: seed, Event: e})
					if err != nil {
						t.Fatal(err)
					}
					// Recorded from the classic engine only.
					checkGolden(t, fmt.Sprintf("scenario.%s.seed%d", sc.Name, seed), sweepArtifact(sw), *updateGoldens && i == 0)
				}
			})
		}
	}
}

// TestShardedSweepEquivalentAcrossScenarios sweeps every growth model at
// n ∈ {1000, 3000} on the windowed executor and demands byte-identical
// results and U(X) CSV artifacts for shards ∈ {1, 2, 4, 8}, under both the
// classic and the compact RIB engine. The shards=1 classic sweep is the
// reference; every other (engine, shards) combination must reproduce it —
// so the test also proves the two engines agree on the windowed schedule.
func TestShardedSweepEquivalentAcrossScenarios(t *testing.T) {
	sizes := []int{1000, 3000}
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			ev := DefaultExperiment(7)
			ev.Origins = 4
			var wantFP string
			var wantCSV []byte
			for _, engine := range []string{"classic", "compact"} {
				base := shardedVariant(ev, 0)
				if engine == "compact" {
					base = compactVariant(base)
				}
				for _, shards := range shardCounts {
					cfg := base
					cfg.BGP.Shards = shards
					sw, err := Sweep(sc, SweepConfig{Sizes: sizes, TopologySeed: 7, Event: cfg})
					if err != nil {
						t.Fatal(err)
					}
					fp, csv := fingerprintSweep(sw), uCSV(sw)
					if wantFP == "" {
						wantFP, wantCSV = fp, csv
						continue
					}
					if fp != wantFP {
						t.Fatalf("%s/shards=%d diverges:\nwant %s\ngot  %s", engine, shards, wantFP, fp)
					}
					if !bytes.Equal(csv, wantCSV) {
						t.Fatalf("%s/shards=%d U(X) CSV differs:\nwant:\n%s\ngot:\n%s", engine, shards, wantCSV, csv)
					}
				}
			}
		})
	}
}

// TestCompactEngineEquivalentProtocolVariants covers the protocol paths the
// scenario sweep leaves at defaults: WRATE withdrawal rate-limiting,
// per-prefix MRAI scope, MRAI disabled, and RFC 2439 dampening. Each runs
// both engines on one Baseline topology at n=1000.
func TestCompactEngineEquivalentProtocolVariants(t *testing.T) {
	topo, err := Baseline.Generate(1000, 41)
	if err != nil {
		t.Fatal(err)
	}
	variants := protocolVariants(41, 4)
	perPrefix := DefaultExperiment(41)
	perPrefix.Origins = 4
	perPrefix.BGP.Scope = PerPrefix
	variants["PER-PREFIX"] = perPrefix
	noMRAI := DefaultExperiment(41)
	noMRAI.Origins = 4
	noMRAI.BGP.MRAI = 0
	variants["NO-MRAI"] = noMRAI
	damp := DefaultExperiment(41)
	damp.Origins = 4
	damp.BGP.Dampening = DefaultDampening()
	variants["DAMPENING"] = damp

	for name, cfg := range variants {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for i, e := range []Experiment{cfg, compactVariant(cfg)} {
				res, err := RunCEvents(topo, e)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, "protocol."+name, []byte(fingerprint(res)+"\n"), *updateGoldens && i == 0)
			}
		})
	}
}

// TestCompactEngineEquivalentWithChecker reruns the Baseline cell with the
// RIB invariant checker active inside the compact engine, proving the
// equivalence is not an artifact of unverified internal state. Kept to one
// small cell — the checker re-decides every touched RIB entry per event.
func TestCompactEngineEquivalentWithChecker(t *testing.T) {
	topo, err := Baseline.Generate(1000, 53)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultExperiment(53)
	cfg.Origins = 2
	checked := compactVariant(cfg)
	checked.BGP.Check = true
	for i, e := range []Experiment{cfg, checked} {
		res, err := RunCEvents(topo, e)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "checker", []byte(fingerprint(res)+"\n"), *updateGoldens && i == 0)
	}
}
