// Command cleanlint runs the cleandb static-analysis suite: the six
// analyzers in internal/lint that enforce the engine's cost-model,
// cancellation, dictionary, sink-lifecycle, lock-snapshot and
// key-encoding-in-sorts invariants.
//
// Usage:
//
//	cleanlint [-list] [packages]
//
// With package patterns (default "./..."), cleanlint loads and type-checks
// the matching packages and prints one line per finding:
//
//	path/file.go:12:3: [ctxcancel] nested loop ... has no reachable cancellation check
//
// The exit status is 1 when any diagnostic survives //lint:ignore
// suppression, 0 otherwise.
//
// cleanlint also speaks the `go vet -vettool` protocol (the -V=full version
// handshake and the *.cfg unit-check invocation), so `go vet
// -vettool=$(which cleanlint) ./...` works too; in that mode diagnostics go
// to stderr and the exit status is 2, matching vet's convention.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cleandb/internal/lint"
	"cleandb/internal/lint/load"
)

func main() {
	// go vet probes its vettool with -V=full (version fingerprint, which
	// must carry a buildID the go command can cache against) and -flags
	// (JSON list of tool flags) before any unit check.
	if len(os.Args) == 2 && os.Args[1] == "-V=full" {
		id := "unknown"
		if exe, err := os.ReadFile(os.Args[0]); err == nil {
			sum := sha256.Sum256(exe)
			id = fmt.Sprintf("%x", sum[:16])
		}
		fmt.Printf("cleanlint version devel buildID=%s\n", id)
		return
	}
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(vetUnit(os.Args[1]))
	}

	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: cleanlint [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers {
			summary, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Printf("%-14s %s\n", a.Name, summary)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.CheckPatterns("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cleanlint: %v\n", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// vetConfig is the subset of the vet unit-check config cleanlint consumes.
type vetConfig struct {
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
}

// vetUnit performs one unit check for `go vet -vettool`: type-check the
// files named in the config against the export data vet already resolved,
// run the suite, and report to stderr. Returns the process exit status.
func vetUnit(cfgPath string) int {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cleanlint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "cleanlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The facts file must exist even though cleanlint exports no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "cleanlint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	// Flatten vet's two-level map (source import string -> canonical path ->
	// export file) into the loader's one-level lookup.
	exports := make(map[string]string, len(cfg.ImportMap))
	for src, canonical := range cfg.ImportMap {
		if f, ok := cfg.PackageFile[canonical]; ok {
			exports[src] = f
		}
	}
	pkg, err := load.CheckFiles(cfg.ImportPath, "", cfg.GoFiles, exports)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cleanlint: %v\n", err)
		return 1
	}
	diags, err := lint.Check([]*load.Package{pkg})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cleanlint: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", d.Position, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
