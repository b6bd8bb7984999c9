// Package lint is catlint's engine: a stdlib-only static-analysis driver
// (go/parser, go/ast, go/types) with project-specific checks, each derived
// from a bug class this repository has already shipped a fix for (see
// DESIGN.md §11). The generic analyzer frameworks live outside the stdlib,
// so the driver loads packages itself: `go list -export -deps -json`
// supplies the file sets and the build cache's export data, and go/types
// type-checks the target packages from source against that export data.
//
// Diagnostics are reported per position and can be suppressed line-by-line
// with `//lint:ignore <checks> <reason>` on the offending line or the line
// above it (ignore.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding: a check name, a position, and a message. The
// JSON shape is the `catlint -format=json` output contract (README "Static
// analysis").
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Package is one type-checked target package.
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// analysis caches the interprocedural substrate (call graph + effect
	// summaries) so one build serves every deep check in a Run. Built lazily
	// by Pass.substrate.
	analysis *packageAnalysis
}

// Check is one named analysis run over a type-checked package.
type Check struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass is the per-(check, package) context handed to a check's Run.
type Pass struct {
	*Package
	Cfg   *Config
	check string
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos. File paths are made relative to the
// working directory when possible, matching compiler output.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	file := position.Filename
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.check,
		File:    file,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Checks returns the suite's six checks, in stable order. Each one
// mechanizes an invariant a past PR broke and then fixed by hand, and
// catches a plant of that bug that go vet, the tests and the race steps
// miss (DESIGN.md §11).
func Checks() []*Check {
	return []*Check{
		checkSigFloat,
		checkRecoverBound,
		checkHotTime,
		checkFsyncGuard,
		checkFrozenGuard,
		checkLockGuard,
	}
}

// SelectChecks resolves a comma-separated check-name list against the suite.
// An empty spec selects every check. Unknown names are an error that lists
// the valid names — running zero checks because of a typo must not look like
// a clean tree.
func SelectChecks(spec string) ([]*Check, error) {
	all := Checks()
	if spec == "" {
		return all, nil
	}
	byName := make(map[string]*Check, len(all))
	names := make([]string, 0, len(all))
	for _, c := range all {
		byName[c.Name] = c
		names = append(names, c.Name)
	}
	var out []*Check
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (valid checks: %s)", name, strings.Join(names, ", "))
		}
		out = append(out, c)
	}
	return out, nil
}

// Run executes the checks over the packages, filters suppressed findings
// through the //lint:ignore directives, and returns the survivors sorted by
// position.
func Run(pkgs []*Package, cfg *Config, checks []*Check) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		dirs := collectIgnores(pkg)
		start := len(diags)
		for _, c := range checks {
			c.Run(&Pass{Package: pkg, Cfg: cfg, check: c.Name, diags: &diags})
		}
		diags = append(diags[:start], filterIgnored(diags[start:], dirs)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message // deterministic dedup survivor
	})
	return dedup(diags)
}

// dedup drops diagnostics that repeat an identical (position, check) pair —
// the interprocedural checks can derive the same finding along several call
// paths, and -format=json output must stay stable regardless of which path
// reports first. The input is position-sorted, so duplicates are adjacent;
// the first (lexically smallest) message wins.
func dedup(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i > 0 {
			p := out[len(out)-1]
			if p.File == d.File && p.Line == d.Line && p.Col == d.Col && p.Check == d.Check {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// GitHub renders the diagnostic as a GitHub Actions workflow command
// (::error file=…) so CI annotates the offending line. Property values and
// the message use the documented %-escapes.
func (d Diagnostic) GitHub() string {
	prop := func(s string) string {
		r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
		return r.Replace(s)
	}
	msg := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(d.Check + ": " + d.Message)
	return fmt.Sprintf("::error file=%s,line=%d,col=%d::%s", prop(d.File), d.Line, d.Col, msg)
}
