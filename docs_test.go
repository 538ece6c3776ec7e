package carat

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteDeclaredTests pins that every test, benchmark and fuzz target
// the prose docs name is declared in some _test.go of this module, so a
// renamed or deleted test cannot leave a citation pointing at nothing. A
// name followed by '*' is a prefix and must match at least one declaration.
// Each alternative of a -run pattern in the Makefile and the CI workflow
// must prefix a declaration too (exactly match it when anchored with '$'),
// so renaming a listed test cannot quietly shrink make race or make chaos.
func TestDocsCiteDeclaredTests(t *testing.T) {
	declRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var declared []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declRE.FindAllSubmatch(src, -1) {
			declared = append(declared, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declares := func(name string, isPrefix bool) bool {
		for _, d := range declared {
			if d == name || isPrefix && strings.HasPrefix(d, name) {
				return true
			}
		}
		return false
	}
	citeRE := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citeRE.FindAllString(string(text), -1) {
			prefix, isPrefix := strings.CutSuffix(name, "*")
			if !declares(prefix, isPrefix) {
				t.Errorf("%s cites %s, which no _test.go in the module declares", doc, name)
			}
		}
	}
	runRE := regexp.MustCompile(`-run '([^']*)'`)
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml"} {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		patterns := runRE.FindAllStringSubmatch(string(text), -1)
		if len(patterns) == 0 {
			t.Errorf("%s has no -run '...' pattern to check", file)
		}
		for _, m := range patterns {
			for _, alt := range strings.Split(m[1], "|") {
				name := strings.TrimPrefix(alt, "^")
				exact := strings.HasSuffix(name, "$") // "$$" in the Makefile
				name = strings.TrimRight(name, "$")
				if name == "" {
					continue // '^$' runs no test, only benchmarks
				}
				if !declares(name, !exact) {
					t.Errorf("%s runs -run alternative %q, which no _test.go in the module declares", file, alt)
				}
			}
		}
	}
}
