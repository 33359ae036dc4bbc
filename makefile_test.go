// Makefile test-selection check: go test exits 0 when a -run pattern
// matches no test ("no tests to run") or a -fuzz pattern no fuzz target
// ("no fuzz tests to fuzz"), so a renamed or deleted test would drop out
// of make race, purego or fuzz without a failure. Every pattern the
// Makefile's go test lines pass has to select something.
package ctrpred

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// valueFlags are the go test flags the Makefile passes that take a value.
var valueFlags = map[string]bool{
	"-run": true, "-fuzz": true, "-fuzztime": true, "-bench": true,
	"-benchtime": true, "-tags": true, "-o": true,
}

func TestMakefileTestPatternsMatch(t *testing.T) {
	lines := goTestLines(readDoc(t, "Makefile"))
	checked := 0
	for _, line := range lines {
		var pkgs []string
		var run, fuzz string
		args := shellWords(line)
		for i := 0; i < len(args); i++ {
			switch a := args[i]; {
			case valueFlags[a]:
				if i+1 == len(args) {
					t.Fatalf("Makefile: %s has no value in %q", a, line)
				}
				i++
				if a == "-run" {
					run = args[i]
				} else if a == "-fuzz" {
					fuzz = args[i]
				}
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		if (run == "" || run == "^$") && fuzz == "" {
			continue
		}
		funcs := map[string]bool{}
		for _, pkg := range pkgs {
			if strings.Contains(pkg, "...") {
				t.Fatalf("Makefile: cannot list the tests of %s in %q", pkg, line)
			}
			for _, name := range testFuncs(t, pkg) {
				funcs[name] = true
			}
		}
		if run != "" && run != "^$" {
			top, _, _ := strings.Cut(run, "/") // the rest selects subtests
			for _, alt := range alternatives(top) {
				if matches(funcs, regexp.MustCompile(alt), "") == 0 {
					t.Errorf("Makefile: -run alternative %q matches no test in %s", alt, strings.Join(pkgs, " "))
				}
				checked++
			}
		}
		if fuzz != "" {
			n := matches(funcs, regexp.MustCompile(fuzz), "Fuzz")
			if len(pkgs) != 1 || n != 1 {
				t.Errorf("Makefile: -fuzz %q matches %d fuzz targets in %s, want exactly one in one package", fuzz, n, strings.Join(pkgs, " "))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("Makefile: found no -run or -fuzz pattern to check")
	}
}

// goTestLines returns the argument text of every `$(GO) test` command in
// a Makefile, with continuation lines joined and Make's $$ unescaped.
func goTestLines(makefile string) []string {
	makefile = strings.ReplaceAll(makefile, "\\\n", " ")
	var out []string
	for _, line := range strings.Split(makefile, "\n") {
		for {
			_, rest, ok := strings.Cut(line, "$(GO) test ")
			if !ok {
				break
			}
			out = append(out, strings.ReplaceAll(rest, "$$", "$"))
			line = rest
		}
	}
	return out
}

// shellWords splits a command's arguments as the shell would, honoring
// single and double quotes, and stops at the first unquoted ;, &, | or ).
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		case strings.IndexByte(";&|)", c) >= 0:
			if inWord {
				words = append(words, cur.String())
			}
			return words
		default:
			cur.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// alternatives splits a regexp at its top-level | operators.
func alternatives(re string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, re[start:i])
				start = i + 1
			}
		}
	}
	return append(out, re[start:])
}

// testFuncs lists the Test, Fuzz and Example functions of the package in
// directory dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("Makefile: package %s has no test files", dir)
	}
	var names []string
	fset := token.NewFileSet()
	for _, f := range files {
		file, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Example"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}

// matches counts the names with the given prefix that re matches.
func matches(names map[string]bool, re *regexp.Regexp, prefix string) int {
	n := 0
	for name := range names {
		if strings.HasPrefix(name, prefix) && re.MatchString(name) {
			n++
		}
	}
	return n
}
