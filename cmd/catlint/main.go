// Command catlint runs the repository's project-specific static-analysis
// suite (internal/lint): six checks, each mechanizing an invariant a past PR
// broke and that neither go vet nor the tests catch — see DESIGN.md §11 and
// §16.
//
// Usage:
//
//	catlint [-format=text|json|github] [-checks a,b,c] [-list] [packages...]
//
// Packages default to ./... . Exit status: 0 clean, 1 findings, 2 driver
// error (including an unknown -checks name). -format=github emits GitHub
// Actions ::error workflow commands so CI annotates the offending lines.
// Suppress one line with `//lint:ignore <check> <reason>` on the offending
// line or the line above it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	format := flag.String("format", "text", "output format: text, json, or github (GitHub Actions ::error commands)")
	checksFlag := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "list the available checks and exit")
	flag.Parse()

	if *list {
		for _, c := range lint.Checks() {
			fmt.Printf("%-14s %s\n", c.Name, c.Doc)
		}
		return
	}
	switch *format {
	case "text", "json", "github":
	default:
		fmt.Fprintf(os.Stderr, "catlint: unknown format %q (valid formats: text, json, github)\n", *format)
		os.Exit(2)
	}
	checks, err := lint.SelectChecks(*checksFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "catlint: %v\n", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "catlint: %v\n", err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, lint.DefaultConfig(), checks)

	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "catlint: %v\n", err)
			os.Exit(2)
		}
	case "github":
		for _, d := range diags {
			fmt.Println(d.GitHub())
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
