// Command experiments regenerates the quality tables and figures of the
// Data Polygamy paper's evaluation (Section 6, Appendix E) on the synthetic
// NYC-style corpus. The timing figures (7-10) are measured by bench/.
//
// Usage:
//
//	experiments -exp all                # run the whole suite
//	experiments -exp table1,figure11    # run selected experiments
//	experiments -list                   # list experiments
//
// Scale knobs (-months, -grid, -scale, -perms, -open) trade fidelity for
// speed; defaults run the suite in minutes. Use -months 24 -grid 96
// -perms 1000 -open 300 to approach the paper's setup.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/urbandata/datapolygamy/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and streams injected; it returns
// the exit code: 0 on success, 1 if an experiment fails, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list   = fs.Bool("list", false, "list available experiments and exit")
		exp    = fs.String("exp", "all", "comma-separated experiment names, or 'all'")
		seed   = fs.Int64("seed", 1, "corpus generation seed")
		scale  = fs.Float64("scale", 0.5, "record-volume scale (1.0 = laptop scale)")
		months = fs.Int("months", 24, "corpus window in months starting 2011-01")
		grid   = fs.Int("grid", 48, "city grid side (96 gives ~300 regions, NYC-like)")
		perms  = fs.Int("perms", 250, "Monte Carlo permutations (paper: 1000)")
		open   = fs.Int("open", 60, "NYC Open-style corpus size (paper: 300)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", r.Name, r.Title)
		}
		return 0
	}

	env := experiments.NewEnv(experiments.Config{
		Seed:         *seed,
		Scale:        *scale,
		Months:       *months,
		CityGrid:     *grid,
		Permutations: *perms,
		OpenDatasets: *open,
	})

	var selected []experiments.Runner
	if *exp == "all" {
		selected = experiments.All()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			r := experiments.Find(strings.TrimSpace(name))
			if r == nil {
				fmt.Fprintf(stderr, "unknown experiment %q (use -list)\n", name)
				return 2
			}
			selected = append(selected, *r)
		}
	}
	for _, r := range selected {
		fmt.Fprintf(stdout, "\n######## %s ########\n", r.Title)
		if err := r.Run(env, stdout); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", r.Name, err)
			return 1
		}
	}
	return 0
}
