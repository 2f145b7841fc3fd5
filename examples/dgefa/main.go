// DGEFA: reproduce the paper's Table 2 experiment — gaussian elimination
// with partial pivoting under a column-cyclic distribution, with and
// without the §2.3 reduction-variable alignment. The pivot search is a
// conditional maxloc reduction; aligning its variables confines the search
// to the processor owning the current column.
//
//	go run ./examples/dgefa [-n 128]
package main

import (
	"flag"
	"fmt"
	"log"

	"phpf"
	"phpf/internal/programs"
)

func main() {
	n := flag.Int("n", 128, "matrix size")
	flag.Parse()

	t := phpf.Table2DGEFA(*n, []int{2, 4, 8, 16}, 0)
	if err := t.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Print(t)

	fmt.Println("\nCommunication overhead share (default column):")
	for _, r := range t.Rows {
		def, aligned := r.Cells[0].Seconds, r.Cells[1].Seconds // Table 2's columns
		over := def - aligned
		fmt.Printf("  P=%2d: %.4f s overhead (%.0f%% of the default run)\n",
			r.Procs, over, 100*over/def)
	}
	fmt.Println("\nThe paper observes the overhead staying roughly constant while its")
	fmt.Println("share of the execution time grows with the processor count.")

	// Show where the pivot-search variables were placed.
	c, err := phpf.Compile(programs.DGEFA(*n), 8, phpf.SelectedOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nMapping decisions (aligned compiler):")
	fmt.Print(c.MappingReport())
}
