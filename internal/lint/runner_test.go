package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// This file is an analysistest-style golden runner: fixtures under
// testdata/src/<rule or banned class>/<pkg> carry `// want "regexp"`
// comments on the lines where a finding is expected, and the runner
// asserts an exact match between expected and reported findings —
// unexpected findings and unmatched expectations both fail.

// runRuleFixture loads testdata/src/<rel> as package path pkgPath and
// runs a TestSourceRules check over it, asserting its findings match the
// want comments. The package path decides whether the package is
// sim-facing.
func runRuleFixture(t *testing.T, check func([]*Package) []string, rel, pkgPath string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", rel)
	pkg, err := LoadFixture(".", dir, pkgPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	got := map[fixtureLine][]string{}
	for _, f := range check([]*Package{pkg}) {
		m := findingRe.FindStringSubmatch(f)
		if m == nil {
			t.Fatalf("finding without a position: %s", f)
		}
		line, _ := strconv.Atoi(m[2])
		k := fixtureLine{m[1], line}
		got[k] = append(got[k], m[3])
	}
	matchWants(t, dir, got)
}

// findingRe splits a source rule's finding (see at) into file, line and
// message.
var findingRe = regexp.MustCompile(`^(.+?):(\d+):\d+: (.*)$`)

type fixtureLine struct {
	file string
	line int
}

// matchWants asserts an exact match between the findings reported for
// the fixture package in dir and its want comments.
func matchWants(t *testing.T, dir string, got map[fixtureLine][]string) {
	t.Helper()
	for _, name := range fixtureFiles(t, dir) {
		path := filepath.Join(dir, name)
		for line, wants := range wantComments(t, path) {
			k := fixtureLine{path, line}
			ds := got[k]
			delete(got, k)
			if len(ds) != len(wants) {
				t.Errorf("%s:%d: got %d diagnostics, want %d: %q", path, line, len(ds), len(wants), ds)
				continue
			}
			for _, w := range wants {
				re := regexp.MustCompile(w)
				matched := false
				for _, d := range ds {
					if re.MatchString(d) {
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("%s:%d: no diagnostic matching %q in %q", path, line, w, ds)
				}
			}
		}
	}
	for k, ds := range got {
		for _, d := range ds {
			t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, d)
		}
	}
}

func fixtureFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			names = append(names, e.Name())
		}
	}
	return names
}

// wantRe matches `// want "..." "..."` comments; the quoted strings are
// Go string literals holding regexps.
var (
	wantRe    = regexp.MustCompile(`//\s*want\s+(.*)$`)
	wantArgRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"` + "|`[^`]*`")
)

// wantComments returns, per line, the expected-diagnostic regexps.
func wantComments(t *testing.T, path string) map[int][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wants := map[int][]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		m := wantRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		args := wantArgRe.FindAllString(m[1], -1)
		if len(args) == 0 {
			t.Fatalf("%s:%d: want comment with no quoted regexp", path, line)
		}
		for _, a := range args {
			s, err := strconv.Unquote(a)
			if err != nil {
				t.Fatalf("%s:%d: bad want literal %s: %v", path, line, a, err)
			}
			wants[line] = append(wants[line], s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return wants
}

// TestFixtureTreeCovered keeps the fixture tree and the test functions in
// sync: every directory under testdata/src must be exercised by some
// runRuleFixture call (tracked via coveredFixtures).
var coveredFixtures = map[string]bool{}

func cover(rel string) string {
	coveredFixtures[rel] = true
	return rel
}

func TestZZFixtureTreeCovered(t *testing.T) {
	// Runs after every fixture test: a package's tests run in the order of
	// their files' names, then of their declarations, and the fixture
	// tests are in rules_test.go.
	root := filepath.Join("testdata", "src")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".go" {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if !coveredFixtures[rel] {
			return fmt.Errorf("fixture package %s is not exercised by any test", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
