// APPSP: reproduce the paper's Table 3 experiment — the sweep kernel whose
// work array c is privatizable with respect to the k loop but not the j
// loop. The 1-D distribution needs full privatization plus transposes
// around the z sweep; the 2-D distribution needs partial privatization
// (partition the j dimension, privatize along k).
//
//	go run ./examples/appsp [-n 16] [-iters 3]
package main

import (
	"flag"
	"fmt"
	"log"

	"phpf"
	"phpf/internal/programs"
)

func main() {
	n := flag.Int("n", 16, "grid size per dimension")
	iters := flag.Int("iters", 3, "iterations")
	maxSec := flag.Float64("max", 100, "simulated-time abort threshold (s)")
	flag.Parse()

	t := phpf.Table3APPSP(*n, *n, *n, *iters, []int{2, 4, 8, 16}, *maxSec)
	if err := t.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Print(t)

	fmt.Println("\nShapes to compare with the paper:")
	fmt.Println(" - both no-privatization columns are far slower and degrade with P;")
	fmt.Println(" - the 2-D version starts faster at small P (no transposes) but the")
	fmt.Println("   1-D version overtakes it as P grows — exactly Table 3's crossover.")

	// Show the privatization decision for c under both distributions.
	for _, twoD := range []bool{false, true} {
		c, err := phpf.Compile(programs.APPSP(*n, *n, *n, 1, twoD), 16, phpf.SelectedOptions())
		if err != nil {
			log.Fatal(err)
		}
		kind := "1-D"
		if twoD {
			kind = "2-D"
		}
		fmt.Printf("\nArray privatization under the %s distribution:\n", kind)
		for _, line := range []string{c.MappingReport()} {
			fmt.Print(line)
		}
	}
}
