// Command edr-bench regenerates the paper's evaluation artifacts: every
// table and figure of §IV, as CSV files plus terminal summaries.
//
//	edr-bench -exp all -out results/        # everything
//	edr-bench -exp fig8 -seed 7             # one experiment, custom seed
//	edr-bench -list                         # what can be regenerated
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"edr/internal/experiments"
)

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment id (table1, fig3..fig9) or 'all'")
		seed = flag.Uint64("seed", 2013, "base random seed (experiments are deterministic per seed)")
		out  = flag.String("out", "", "directory to write CSV tables into (empty: don't write)")
		list = flag.Bool("list", false, "list available experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	run := func(id string, title string, runner experiments.Runner) {
		begin := time.Now()
		res, err := runner(*seed)
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Printf("\n=== %s — %s (%v)\n", id, title, time.Since(begin).Round(time.Millisecond))
		for _, tab := range res.Tables {
			if tab.Rows() <= 24 {
				if err := tab.Render(os.Stdout); err != nil {
					log.Fatal(err)
				}
			} else {
				fmt.Printf("## %s: %d rows (see CSV)\n", tab.Name, tab.Rows())
			}
			if *out != "" {
				path, err := tab.SaveCSV(*out)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("wrote %s\n", path)
			}
		}
		if len(res.Summary) > 0 {
			fmt.Println("summary:")
			keys := res.SummaryKeys()
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf("  %-46s %12.4f\n", k, res.Summary[k])
			}
		}
		for _, note := range res.Notes {
			fmt.Printf("note: %s\n", note)
		}
	}

	if *exp == "all" {
		for _, e := range experiments.Registry() {
			run(e.ID, e.Title, e.Run)
		}
		return
	}
	runner, err := experiments.Lookup(*exp)
	if err != nil {
		log.Fatal(err)
	}
	title := ""
	for _, e := range experiments.Registry() {
		if e.ID == *exp {
			title = e.Title
		}
	}
	run(*exp, title, runner)
}
