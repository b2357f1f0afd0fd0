// Command availlint runs the repo's analyzer suite (internal/lint) over
// the given packages: the one check whose bugs no behavioural test
// catches, snapshot field coverage (snapfields). The determinism bans are
// rows of internal/lint's TestSourceRules; map iteration order is held by
// behavioural tests (DESIGN §14).
//
// Usage:
//
//	go run ./cmd/availlint ./...
//	go run ./cmd/availlint -analyzers snapfields ./internal/server
//	go run ./cmd/availlint -list
//
// Exit status: 0 means every selected analyzer is clean on every loaded
// package; 1 means at least one finding, printed on stdout; 2 means the
// run never happened: an unknown flag or -analyzers name, or the
// packages failed to load or type-check.
//
// Exempt a struct field from snapfields with an
// `//availlint:skipfield <field> <reason>` annotation on or above its
// declaration.
package main

import (
	"flag"
	"fmt"
	"os"

	"press/internal/lint"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("availlint", flag.ContinueOnError)
	analyzers := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	sel, err := lint.ByName(*analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "availlint:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "availlint:", err)
		return 2
	}

	diags := lint.Run(pkgs, sel)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		return 1
	}
	fmt.Printf("availlint: %d packages clean\n", len(pkgs))
	return 0
}
