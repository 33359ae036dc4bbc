// Documentation inventory checks: the docs name only package directories
// that exist, and the two package maps — DESIGN.md §2 and the code block
// under README.md's Architecture heading — list every one. A deleted or
// renamed package has to leave the docs with it, and a new one has to be
// entered in both maps. A code identifier the docs qualify with an
// internal package must be declared there, README.md's cipher-engine
// table is held to the engine spec grammar the same way, and its
// predictor table to the predictor's Table 1 parameters.
package ctrpred

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/predictor"
)

// docs are the documents the inventory checks read.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// pkgRef matches a package directory named in prose: internal/x, cmd/x
// or examples/x, bare or behind ./ or the module path.
var pkgRef = regexp.MustCompile(`\b(?:internal|cmd|examples)/[a-z0-9_]+`)

func TestDocsNameExistingPackages(t *testing.T) {
	for _, doc := range docs {
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

// backticked matches a code span's text.
var backticked = regexp.MustCompile("`([^`]+)`")

// TestDocsModulesColumnNamesPackages holds DESIGN.md §6's Modules column
// to the package tree: every backticked name there, or for a name like
// sim.DefaultConfig the part before the dot, is a directory under
// internal/.
func TestDocsModulesColumnNamesPackages(t *testing.T) {
	index := between(t, "DESIGN.md", readDoc(t, "DESIGN.md"), "\n## 6.", "\n## ")
	col, checked := -1, 0
	for _, line := range strings.Split(index, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(line, "|")
		if col < 0 {
			col = slices.IndexFunc(cells, func(c string) bool { return strings.TrimSpace(c) == "Modules" })
			if col < 0 {
				t.Fatal("DESIGN.md §6's table has no Modules column")
			}
			continue
		}
		if col >= len(cells) {
			continue
		}
		for _, m := range backticked.FindAllStringSubmatch(cells[col], -1) {
			pkg, _, _ := strings.Cut(m[1], ".")
			if fi, err := os.Stat(filepath.Join("internal", pkg)); err != nil || !fi.IsDir() {
				t.Errorf("DESIGN.md §6 lists module %s, but internal/%s is not a directory", m[1], pkg)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("DESIGN.md §6's Modules column names no package")
	}
}

// qualifiedIdent matches a code span that opens with a package-qualified
// exported identifier, e.g. chaos.Middleware or sim.Config{...}.
var qualifiedIdent = regexp.MustCompile(`^([a-z0-9_]+)\.([A-Z][A-Za-z0-9_]*)`)

// fence matches a fenced code block, which holds commands and output,
// not prose references.
var fence = regexp.MustCompile("(?ms)^```.*?^```")

// TestDocsNameDeclaredIdentifiers holds the docs' code identifiers to
// the code: each backticked span outside fenced blocks that opens with
// pkg.Name, where internal/pkg is a directory, names a function, method,
// type, constant or variable that the package's non-test files declare.
func TestDocsNameDeclaredIdentifiers(t *testing.T) {
	declared := map[string]map[string]bool{}
	checked := 0
	for _, doc := range docs {
		prose := fence.ReplaceAllString(readDoc(t, doc), "")
		for _, span := range backticked.FindAllStringSubmatch(prose, -1) {
			m := qualifiedIdent.FindStringSubmatch(span[1])
			if m == nil {
				continue
			}
			pkg, name := m[1], m[2]
			if fi, err := os.Stat(filepath.Join("internal", pkg)); err != nil || !fi.IsDir() {
				continue
			}
			if declared[pkg] == nil {
				declared[pkg] = declarations(t, filepath.Join("internal", pkg))
			}
			if !declared[pkg][name] {
				t.Errorf("%s names %s.%s, which internal/%s does not declare", doc, pkg, name, pkg)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("the docs name no package-qualified identifier")
	}
}

// declarations returns the names dir's non-test Go files declare at top
// level: functions, methods, types, constants and variables.
func declarations(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							names[id.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// engineParam matches one entry of README.md's engine table's
// Parameters column: a backticked key and the leading digits of its
// default, e.g. `lat` (96).
var engineParam = regexp.MustCompile("`([a-z]+)` \\(([0-9]+)")

// TestDocsEngineTable holds README.md's cipher-engine table to the spec
// grammar: each model's row lists exactly the parameters ParseEngine
// accepts for it, each with the default Spec.Normalized fills in.
func TestDocsEngineTable(t *testing.T) {
	section := between(t, "README.md", readDoc(t, "README.md"), "\n## Cipher-engine models", "\n## ")
	col := -1
	var models []string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(line, "|")
		if col < 0 {
			col = slices.IndexFunc(cells, func(c string) bool { return strings.HasPrefix(strings.TrimSpace(c), "Parameters") })
			if col < 0 {
				t.Fatal("README.md's engine table has no Parameters column")
			}
			continue
		}
		m := backticked.FindStringSubmatch(cells[1])
		if m == nil || col >= len(cells) {
			continue // the header's separator row
		}
		model := m[1]
		models = append(models, model)
		d := cryptoengine.Spec{Model: model}.Normalized()
		defaults := map[string]uint64{"lat": d.LatencyCycles, "issue": uint64(d.IssuePerCycle), "banks": uint64(d.Banks)}
		listed := map[string]string{}
		for _, p := range engineParam.FindAllStringSubmatch(cells[col], -1) {
			listed[p[1]] = p[2]
		}
		for key := range defaults {
			_, err := cryptoengine.ParseEngine(model + ":" + key + "=1")
			val, ok := listed[key]
			delete(listed, key)
			switch {
			case ok != (err == nil):
				t.Errorf("README.md's %s row lists %s: %v; ParseEngine(%q) accepts it: %v", model, key, ok, model+":"+key+"=1", err == nil)
			case ok && val != strconv.FormatUint(defaults[key], 10):
				t.Errorf("README.md's %s row gives %s a default of %s; Spec.Normalized gives %d", model, key, val, defaults[key])
			}
		}
		for key := range listed {
			t.Errorf("README.md's %s row lists %s, which is no engine parameter", model, key)
		}
	}
	if want := []string{cryptoengine.ModelAES, cryptoengine.ModelSealer, cryptoengine.ModelBipBip}; !slices.Equal(models, want) {
		t.Errorf("README.md's engine table has rows %v, want %v", models, want)
	}
}

// TestDocsPredictorTable holds README.md's predictor table to the
// predictor's Table 1 parameters: each scheme's row states the values
// DefaultConfig and the package's constants give.
func TestDocsPredictorTable(t *testing.T) {
	section := between(t, "README.md", readDoc(t, "README.md"), "\n## The predictors", "\n## ")
	rows := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 {
			rows[strings.TrimSpace(cells[1])] = line
		}
	}
	d := predictor.DefaultConfig()
	for scheme, want := range map[string][]string{
		"regular":   {fmt.Sprintf("`root … root+%d`", d.Depth)},
		"adaptive":  {fmt.Sprintf("%d-bit per-page history", predictor.PHVBits), fmt.Sprintf("≥%d misses", d.ResetThreshold), fmt.Sprintf("+%d bits/page", predictor.PHVBits)},
		"two-level": {fmt.Sprintf("%d-bit per-line range index", predictor.RangeBits), fmt.Sprintf("window of %d", d.Depth+1), fmt.Sprintf("%d-entry", predictor.RangeTableEntries)},
		"context":   {fmt.Sprintf("LOR ± %d", d.Swing)},
	} {
		row, ok := rows[scheme]
		if !ok {
			t.Errorf("README.md's predictor table has no %s row", scheme)
			continue
		}
		for _, w := range want {
			if !strings.Contains(row, w) {
				t.Errorf("README.md's %s row does not state %q:\n%s", scheme, w, row)
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
