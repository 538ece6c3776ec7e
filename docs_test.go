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
	citeRE := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citeRE.FindAllString(string(text), -1) {
			prefix, isPrefix := strings.CutSuffix(name, "*")
			found := false
			for _, d := range declared {
				if d == name || isPrefix && strings.HasPrefix(d, prefix) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s cites %s, which no _test.go in the module declares", doc, name)
			}
		}
	}
}
