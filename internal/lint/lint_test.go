package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"cleandb/internal/lint"
	"cleandb/internal/lint/load"
)

// TestSuppression checks the //lint:ignore contract end to end: a justified
// ignore on the flagged line or the line above suppresses the diagnostic, an
// ignore without a justification suppresses nothing and is itself reported.
func TestSuppression(t *testing.T) {
	pkg, err := load.FixturePackage(
		filepath.Join("testdata", "src", "suppressfixture"), "suppressfixture")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := lint.Check([]*load.Package{pkg})
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer)
	}
	// Survivors: the unsuppressed violation, the violation whose ignore had
	// no justification, and the malformed-ignore report itself.
	want := map[string]int{"dictcode": 2, "lint": 1}
	have := map[string]int{}
	for _, a := range got {
		have[a]++
	}
	if len(have) != len(want) || have["dictcode"] != want["dictcode"] || have["lint"] != want["lint"] {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Fatalf("diagnostics by analyzer = %v, want %v", have, want)
	}
	for _, d := range diags {
		if d.Analyzer == "lint" && !strings.Contains(d.Message, "justification") {
			t.Errorf("malformed-ignore diagnostic should demand a justification, got %q", d.Message)
		}
	}
}

// TestByName spot-checks the registry.
func TestByName(t *testing.T) {
	if len(lint.Analyzers) != 6 {
		t.Fatalf("suite has %d analyzers, want 6", len(lint.Analyzers))
	}
	for _, name := range []string{"metricscharge", "ctxcancel", "dictcode", "sinkrelease", "locksnapshot", "keysort"} {
		if lint.ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if lint.ByName("nope") != nil {
		t.Errorf("ByName(nope) should be nil")
	}
}

// TestSelfCheck runs the whole suite over the repository: the tree must stay
// clean — violations are either fixed or carry a justified //lint:ignore.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	dir, err := load.ModuleDir()
	if err != nil {
		t.Fatalf("locating module: %v", err)
	}
	diags, err := lint.CheckPatterns(dir, "./...")
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
