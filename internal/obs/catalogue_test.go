package obs

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// catalogueRow matches one row of DESIGN.md's metric catalogue:
// | `name` | type | counted by | moves | `TestName` |
var catalogueRow = regexp.MustCompile("^\\| `(bgpchurn_[a-z0-9_]+)` \\| (counter|gauge|histogram) \\|.*\\| `(Test[A-Za-z0-9_]+)` \\|$")

// TestMetricCatalogue holds DESIGN.md's metric catalogue to the registry:
// every metric obs.New registers has exactly one row with its type, every
// row names a registered metric, and the test each row names exists.
func TestMetricCatalogue(t *testing.T) {
	const root = "../.."
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]string{} // name -> type
	tests := map[string]bool{}
	for _, line := range strings.Split(string(design), "\n") {
		if !strings.HasPrefix(line, "| `bgpchurn_") {
			continue
		}
		f := catalogueRow.FindStringSubmatch(line)
		if f == nil {
			t.Errorf("malformed catalogue row: %s", line)
			continue
		}
		if _, dup := documented[f[1]]; dup {
			t.Errorf("%s has two catalogue rows", f[1])
		}
		documented[f[1]] = f[2]
		tests[f[3]] = true
	}

	m := New()
	registered := map[string]string{}
	for _, c := range m.counters {
		registered[c.name] = "counter"
	}
	for _, g := range m.gauges {
		registered[g.name] = "gauge"
	}
	for _, h := range m.hists {
		registered[h.name] = "histogram"
	}
	for name, typ := range registered {
		if got, ok := documented[name]; !ok {
			t.Errorf("%s (%s) is registered but not in the catalogue", name, typ)
		} else if got != typ {
			t.Errorf("%s: catalogue says %s, registry %s", name, got, typ)
		}
	}
	for name := range documented {
		if _, ok := registered[name]; !ok {
			t.Errorf("%s is in the catalogue but not registered", name)
		}
	}

	// Every named test is declared somewhere in the module.
	for _, name := range undeclaredTests(t, root, tests) {
		t.Errorf("the catalogue names %s, which no test file declares", name)
	}
}

// citedTest matches a test name cited in prose.
var citedTest = regexp.MustCompile(`\bTest[A-Z][A-Za-z0-9_]*`)

// roadmapItem matches a reference to a ROADMAP item by number ("ROADMAP
// item 8", "ROADMAP 3(b)"), which goes stale when ROADMAP.md is renumbered.
var roadmapItem = regexp.MustCompile(`ROADMAP (item )?[0-9]+`)

// TestDocsCiteDeclaredTests holds DESIGN.md and EXPERIMENTS.md to the test
// files: every Test… name either document cites is declared in some
// _test.go of the module, so a renamed or deleted test cannot leave a
// claim behind that names it. Neither document names a ROADMAP item by
// number.
func TestDocsCiteDeclaredTests(t *testing.T) {
	const root = "../.."
	cited := map[string]bool{}
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citedTest.FindAllString(string(src), -1) {
			cited[name] = true
		}
		for i, line := range strings.Split(string(src), "\n") {
			if ref := roadmapItem.FindString(line); ref != "" {
				t.Errorf("%s:%d names %q; name the subject, not its ROADMAP number", doc, i+1, ref)
			}
		}
	}
	if len(cited) == 0 {
		t.Fatal("the documents cite no tests: the pattern has drifted")
	}
	for _, name := range undeclaredTests(t, root, cited) {
		t.Errorf("the documents cite %s, which no test file declares", name)
	}
}

// undeclaredTests walks the module's _test.go files under root and returns,
// sorted, the names in tests that none of them declares as a test function.
// It consumes tests.
func undeclaredTests(t *testing.T, root string, tests map[string]bool) []string {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for name := range tests {
			if strings.Contains(string(src), "func "+name+"(t *testing.T)") {
				delete(tests, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	missing := make([]string, 0, len(tests))
	for name := range tests {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	return missing
}
