// Documentation inventory checks: the docs name only package directories
// that exist, and the two package maps — DESIGN.md §2 and the code block
// under README.md's Architecture heading — list every one. A deleted or
// renamed package has to leave the docs with it, and a new one has to be
// entered in both maps.
package ctrpred

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// pkgRef matches a package directory named in prose: internal/x, cmd/x
// or examples/x, bare or behind ./ or the module path.
var pkgRef = regexp.MustCompile(`\b(?:internal|cmd|examples)/[a-z0-9_]+`)

func TestDocsNameExistingPackages(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		seen := map[string]bool{}
		for _, ref := range pkgRef.FindAllString(readDoc(t, doc), -1) {
			if seen[ref] {
				continue
			}
			seen[ref] = true
			if fi, err := os.Stat(ref); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory", doc, ref)
			}
		}
	}
}

func TestDocsListEveryPackage(t *testing.T) {
	design := between(t, "DESIGN.md", readDoc(t, "DESIGN.md"), "\n## 2.", "\n## ")
	readme := between(t, "README.md", readDoc(t, "README.md"), "\n## Architecture", "\n## ")
	tree := between(t, "README.md's Architecture section", readme, "```", "```")
	for _, parent := range []string{"internal", "cmd", "examples"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			dir := parent + "/" + e.Name()
			if !names(design, dir) {
				t.Errorf("DESIGN.md §2 does not list %s", dir)
			}
			if parent != "examples" && !names(tree, dir) {
				t.Errorf("README.md's Architecture tree does not list %s", dir)
			}
		}
	}
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.FromSlash(name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// between returns the text of doc from the first start marker up to the
// next end marker after it (or the end of doc).
func between(t *testing.T, what, doc, start, end string) string {
	t.Helper()
	i := strings.Index(doc, start)
	if i < 0 {
		t.Fatalf("%s has no %q", what, strings.TrimSpace(start))
	}
	doc = doc[i+len(start):]
	if j := strings.Index(doc, end); j >= 0 {
		doc = doc[:j]
	}
	return doc
}

// names reports whether text names dir whole, so internal/mem is not
// satisfied by internal/memsys.
func names(text, dir string) bool {
	return regexp.MustCompile(`\b` + regexp.QuoteMeta(dir) + `\b`).MatchString(text)
}
