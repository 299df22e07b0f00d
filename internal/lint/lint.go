// Package lint assembles the cleanlint suite: the six analyzers that keep
// the engine honest about its cost model (metricscharge), cancellation
// (ctxcancel), dictionary encoding (dictcode), sink lifecycle (sinkrelease),
// catalog locking (locksnapshot), and key encoding in sorts (keysort). The Check driver runs every applicable
// analyzer over a set of loaded packages and filters diagnostics through
// //lint:ignore suppression comments.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"cleandb/internal/lint/analysis"
	"cleandb/internal/lint/ctxcancel"
	"cleandb/internal/lint/dictcode"
	"cleandb/internal/lint/keysort"
	"cleandb/internal/lint/load"
	"cleandb/internal/lint/locksnapshot"
	"cleandb/internal/lint/metricscharge"
	"cleandb/internal/lint/sinkrelease"
)

// Analyzers is the cleanlint suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	metricscharge.Analyzer,
	ctxcancel.Analyzer,
	dictcode.Analyzer,
	sinkrelease.Analyzer,
	locksnapshot.Analyzer,
	keysort.Analyzer,
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Diagnostic is one resolved finding: a position, the analyzer that produced
// it, and the message.
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
}

// CheckPatterns loads the packages matching patterns relative to dir and runs
// the suite over them.
func CheckPatterns(dir string, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := load.Packages(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return Check(pkgs)
}

// Check runs every applicable analyzer over pkgs, applies //lint:ignore
// suppression, and returns the surviving diagnostics sorted by position.
func Check(pkgs []*load.Package) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		sup, malformed := suppressions(pkg)
		out = append(out, malformed...)
		for _, a := range Analyzers {
			if !a.AppliesTo(pkg.ImportPath) {
				continue
			}
			diags, err := runAnalyzer(a, pkg)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.ImportPath, err)
			}
			for _, d := range diags {
				if !sup.covers(d.Position, d.Analyzer) {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Position, out[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// runAnalyzer applies one analyzer to one package, resolving positions.
// Test files are exempt: the invariants target production operator code, not
// assertion loops over fixture-sized inputs.
func runAnalyzer(a *analysis.Analyzer, pkg *load.Package) ([]Diagnostic, error) {
	files := pkg.Files[:0:0]
	for _, f := range pkg.Files {
		if !strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
			files = append(files, f)
		}
	}
	var diags []Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     files,
		Pkg:       pkg.Pkg,
		TypesInfo: pkg.TypesInfo,
		Report: func(d analysis.Diagnostic) {
			diags = append(diags, Diagnostic{
				Position: pkg.Fset.Position(d.Pos),
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		},
	}
	if _, err := a.Run(pass); err != nil {
		return nil, err
	}
	return diags, nil
}

// suppressionIndex records, per file and line, the analyzer names an ignore
// comment on that line suppresses.
type suppressionIndex map[string]map[int]map[string]bool

// covers reports whether a diagnostic of the given analyzer at pos is
// suppressed: an ignore comment sits on the same line (trailing) or on the
// line directly above the flagged one.
func (s suppressionIndex) covers(pos token.Position, analyzer string) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if names := lines[line]; names != nil && (names[analyzer] || names["*"]) {
			return true
		}
	}
	return false
}

const ignorePrefix = "//lint:ignore"

// suppressions indexes every //lint:ignore comment in the package. The form
// is
//
//	//lint:ignore analyzer[,analyzer...] justification
//
// placed on the flagged line or the line directly above it. A comment with no
// justification text is itself reported as a diagnostic: suppressions must
// say why the invariant does not apply.
func suppressions(pkg *load.Package) (suppressionIndex, []Diagnostic) {
	idx := suppressionIndex{}
	var malformed []Diagnostic
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				names, justification, _ := strings.Cut(rest, " ")
				if names == "" || strings.TrimSpace(justification) == "" {
					malformed = append(malformed, Diagnostic{
						Position: pos,
						Analyzer: "lint",
						Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzer> <justification>\"; the justification is required",
					})
					continue
				}
				for _, name := range strings.Split(names, ",") {
					if name != "*" && ByName(name) == nil {
						malformed = append(malformed, Diagnostic{
							Position: pos,
							Analyzer: "lint",
							Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q", name),
						})
						continue
					}
					if idx[pos.Filename] == nil {
						idx[pos.Filename] = map[int]map[string]bool{}
					}
					if idx[pos.Filename][pos.Line] == nil {
						idx[pos.Filename][pos.Line] = map[string]bool{}
					}
					idx[pos.Filename][pos.Line][name] = true
				}
			}
		}
	}
	return idx, malformed
}
