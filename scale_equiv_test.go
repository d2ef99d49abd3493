package bgpchurn

// Golden tier for the RIB engine. The engine holds routes as interned 32-bit
// path IDs over CSR slot arrays; a second engine holding them as per-node
// path slices used to run beside it, and before it was deleted its complete
// rendered results and U(X) CSV artifacts — every growth scenario at paper
// scales, every protocol variant — were frozen under testdata/golden. The
// TestCompactEngineEquivalent* tests demand the engine reproduce those files
// byte for byte: it still may not differ from the slice-path engine in a
// single observable bit.

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bgpchurn/internal/report"
)

// Regenerate the goldens (only after an intended model change) with
//
//	go test . -run 'TestCompactEngine|TestGoldenFilesPinned' -update-goldens
//
// after which TestGoldenFilesPinned fails until goldenTreeSHA256 is edited by
// hand to match.
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/golden from the current engine")

// goldenTreeSHA256 pins the bytes of every file under testdata/golden (see
// TestGoldenFilesPinned): no second engine cross-checks the oracle any more,
// so a stray -update-goldens must not be able to rewrite it silently.
const goldenTreeSHA256 = "cc2235fe4d0e37d868d5c71fb17ad6e5151d592722232371257ff52e6a7999e5"

// TestGoldenFilesPinned hashes testdata/golden — names and contents, in name
// order — against goldenTreeSHA256.
func TestGoldenFilesPinned(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(files)
	h := sha256.New()
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %x\n", filepath.Base(file), sha256.Sum256(b))
	}
	if sum := fmt.Sprintf("%x", h.Sum(nil)); sum != goldenTreeSHA256 {
		t.Fatalf("testdata/golden hashes to %s, pinned %s: the oracle was rewritten", sum, goldenTreeSHA256)
	}
}

// checkGolden compares got with testdata/golden/<name>.golden, first writing
// the file under -update-goldens, and checks that every Result rs it pins
// closes Eq. 1: per node type, Σ_rel M·Q·E = U(X), and per relation
// M·Q·E = ByRel[rel].U, within a relative 1e-12.
func checkGolden(t *testing.T, name string, got []byte, rs ...*Result) {
	t.Helper()
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }
	for _, r := range rs {
		for typ, tr := range r.ByType {
			var sum float64
			for rel, rf := range tr.ByRel {
				mqe := rf.M * rf.Q * rf.E
				if !near(mqe, rf.U) {
					t.Errorf("%s n=%d: %v/%v: M·Q·E = %v, U = %v", name, r.N, NodeType(typ), Relation(rel), mqe, rf.U)
				}
				sum += mqe
			}
			if !near(sum, tr.U) {
				t.Errorf("%s n=%d: %v: Σ M·Q·E = %v, U = %v", name, r.N, NodeType(typ), sum, tr.U)
			}
		}
	}
	file := filepath.Join("testdata", "golden", name+".golden")
	if *updateGoldens {
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
// n ∈ {1000, 3000} under two independent seeds and demands the slice-path
// engine's frozen results and U(X) CSVs exactly.
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
				sw, err := Sweep(sc, SweepConfig{Sizes: sizes, TopologySeed: seed, Event: ev})
				if err != nil {
					t.Fatal(err)
				}
				var rs []*Result
				for _, p := range sw.Points {
					rs = append(rs, p.R)
				}
				checkGolden(t, fmt.Sprintf("scenario.%s.seed%d", sc.Name, seed), sweepArtifact(sw), rs...)
			})
		}
	}
}

// TestShardedSweepEquivalentAcrossScenarios sweeps every growth model at
// n ∈ {1000, 3000} on the windowed executor and demands byte-identical
// results and U(X) CSV artifacts at 1, 2, 4 and 8 CPUs. The one-CPU sweep is
// the reference. The scenarios run one after another: GOMAXPROCS is
// process-wide.
func TestShardedSweepEquivalentAcrossScenarios(t *testing.T) {
	sizes := []int{1000, 3000}
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			ev := shardedVariant(DefaultExperiment(7))
			ev.Origins = 4
			var wantFP string
			var wantCSV []byte
			for _, cpus := range cpuCounts {
				var sw *SweepResult
				var err error
				withCPUs(cpus, func() { sw, err = Sweep(sc, SweepConfig{Sizes: sizes, TopologySeed: 7, Event: ev}) })
				if err != nil {
					t.Fatal(err)
				}
				fp, csv := fingerprintSweep(sw), uCSV(sw)
				if wantFP == "" {
					wantFP, wantCSV = fp, csv
					continue
				}
				if fp != wantFP {
					t.Fatalf("%d CPUs diverge:\nwant %s\ngot  %s", cpus, wantFP, fp)
				}
				if !bytes.Equal(csv, wantCSV) {
					t.Fatalf("%d CPUs: U(X) CSV differs:\nwant:\n%s\ngot:\n%s", cpus, wantCSV, csv)
				}
			}
		})
	}
}

// TestCompactEngineEquivalentProtocolVariants covers the protocol paths the
// scenario sweep leaves at defaults: WRATE withdrawal rate-limiting,
// per-prefix MRAI scope, MRAI disabled, and RFC 2439 dampening, each on one
// Baseline topology at n=1000.
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
			res, err := RunCEvents(topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "protocol."+name, []byte(fingerprint(res)+"\n"), res)
		})
	}
}

// TestCompactEngineEquivalentWithChecker reruns a Baseline cell with the RIB
// invariant checker active (the golden was recorded without), proving the
// equivalence is not an artifact of unverified internal state. Kept to one
// small cell — the checker re-decides every touched RIB entry per event.
func TestCompactEngineEquivalentWithChecker(t *testing.T) {
	topo, err := Baseline.Generate(1000, 53)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultExperiment(53)
	cfg.Origins = 2
	cfg.BGP.Check = true
	res, err := RunCEvents(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "checker", []byte(fingerprint(res)+"\n"), res)
}
