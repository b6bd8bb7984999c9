package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The fixture harness: every fixture file annotates its expected diagnostics
// with `// want `regex`` comments on the offending line (several backquoted
// regexes when one line carries several findings). The test demands an exact
// bidirectional match — every diagnostic hits a want on its line, every want
// is hit by a diagnostic — so a check that over- or under-reports fails
// loudly with positions.

// fixturePatterns names every fixture package directory outright: the go
// command's ... wildcard deliberately skips testdata, so the directories
// cannot be globbed.
func fixturePatterns(t *testing.T) []string {
	t.Helper()
	dirs := make(map[string]bool)
	root := filepath.Join("testdata", "src")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			dirs["./"+filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
	pats := make([]string, 0, len(dirs))
	for d := range dirs {
		pats = append(pats, d)
	}
	sort.Strings(pats)
	if len(pats) == 0 {
		t.Fatal("no fixture packages under testdata/src")
	}
	return pats
}

// Loading type-checks against the build cache via `go list -export`, so do
// it once for the whole test binary.
var (
	fixtureOnce sync.Once
	fixturePkgs []*Package
	fixtureErr  error
)

func loadFixtures(t *testing.T) []*Package {
	t.Helper()
	fixtureOnce.Do(func() {
		fixturePkgs, fixtureErr = Load(fixturePatterns(t))
	})
	if fixtureErr != nil {
		t.Fatalf("loading fixtures: %v", fixtureErr)
	}
	return fixturePkgs
}

type wantKey struct {
	file string // absolute
	line int
}

type want struct {
	re  *regexp.Regexp
	hit bool
}

var wantQuoted = regexp.MustCompile("`([^`]*)`")

const wantPrefix = "// want "

func collectWants(t *testing.T, pkgs []*Package) map[wantKey][]*want {
	t.Helper()
	wants := make(map[wantKey][]*want)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, wantPrefix) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					quoted := wantQuoted.FindAllStringSubmatch(c.Text, -1)
					if len(quoted) == 0 {
						t.Errorf("%s:%d: want comment without a backquoted regex", pos.Filename, pos.Line)
						continue
					}
					key := wantKey{file: pos.Filename, line: pos.Line}
					for _, q := range quoted {
						re, err := regexp.Compile(q[1])
						if err != nil {
							t.Errorf("%s:%d: bad want regex %q: %v", pos.Filename, pos.Line, q[1], err)
							continue
						}
						wants[key] = append(wants[key], &want{re: re})
					}
				}
			}
		}
	}
	return wants
}

func TestFixtureWants(t *testing.T) {
	pkgs := loadFixtures(t)
	diags := Run(pkgs, DefaultConfig(), Checks())
	wants := collectWants(t, pkgs)

	for _, d := range diags {
		abs, err := filepath.Abs(d.File)
		if err != nil {
			t.Fatalf("abs(%q): %v", d.File, err)
		}
		matched := false
		for _, w := range wants[wantKey{file: abs, line: d.Line}] {
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s:%d: no diagnostic matched want %q", key.file, key.line, w.re)
			}
		}
	}
}

// TestEveryCheckFires is the seeded-violation proof: each check in the suite
// must produce at least one diagnostic on the fixtures, so a check that
// silently stops matching cannot rot unnoticed.
func TestEveryCheckFires(t *testing.T) {
	pkgs := loadFixtures(t)
	diags := Run(pkgs, DefaultConfig(), Checks())
	seen := make(map[string]bool)
	for _, d := range diags {
		seen[d.Check] = true
	}
	for _, c := range Checks() {
		if !seen[c.Name] {
			t.Errorf("check %s produced no diagnostics on the fixtures", c.Name)
		}
	}
}

// TestNegativeFixturesQuiet pins the all-clean packages: the scoping rules
// and suppressions must silence every diagnostic in them.
func TestNegativeFixturesQuiet(t *testing.T) {
	pkgs := loadFixtures(t)
	diags := Run(pkgs, DefaultConfig(), Checks())
	for _, d := range diags {
		if strings.Contains(d.File, "testdata/src/clean/") ||
			strings.Contains(d.File, "testdata/src/internal/resilience/") ||
			strings.Contains(d.File, "testdata/src/internal/relation/durable/") {
			t.Errorf("negative fixture produced a diagnostic: %s", d)
		}
	}
}

// TestIgnoreDirectives pins the suppression contract: a directive needs both
// a check list and a reason, covers its own line and the one below, and "*"
// covers every check.
func TestIgnoreDirectives(t *testing.T) {
	src := `package p

func f() {
	//lint:ignore hottime
	_ = 1
	//lint:ignore hottime recorded reason
	_ = 2
	//lint:ignore * recorded reason
	_ = 3
	_ = 4 //lint:ignore fsyncguard,hottime recorded reason
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ignore_fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	dirs := collectIgnores(&Package{Fset: fset, Files: []*ast.File{f}})
	cases := []struct {
		line       int
		check      string
		suppressed bool
	}{
		{5, "hottime", false}, // directive above has no reason
		{7, "hottime", true},
		{7, "sigfloat", false}, // wrong check
		{9, "sigfloat", true},  // wildcard
		{10, "hottime", true},  // same-line directive
		{10, "sigfloat", false},
	}
	for _, c := range cases {
		d := Diagnostic{Check: c.check, File: "ignore_fixture.go", Line: c.line}
		if got := suppressed(d, dirs); got != c.suppressed {
			t.Errorf("line %d check %s: suppressed=%v, want %v", c.line, c.check, got, c.suppressed)
		}
	}
}
