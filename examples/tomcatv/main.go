// TOMCATV: reproduce the paper's Table 1 experiment at a configurable size
// — the mesh-generation kernel compiled with replication, producer
// alignment, and selected alignment, across processor counts.
//
//	go run ./examples/tomcatv [-n 129] [-iters 5]
package main

import (
	"flag"
	"fmt"
	"log"

	"phpf"
)

func main() {
	n := flag.Int("n", 129, "mesh size")
	iters := flag.Int("iters", 5, "iterations")
	flag.Parse()

	t := phpf.Table1TOMCATV(*n, *iters, []int{1, 2, 4, 8, 16}, 0)
	if err := t.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Print(t)

	const replication, producer, selected = 0, 1, 2 // Table 1's columns
	last := t.Rows[len(t.Rows)-1].Cells
	fmt.Printf("\nAt 16 processors, selected alignment is %.0fx faster than replication\n",
		last[replication].Seconds/last[selected].Seconds)
	fmt.Printf("and %.0fx faster than producer alignment — the paper reports more than\n",
		last[producer].Seconds/last[selected].Seconds)
	fmt.Println("two orders of magnitude, and that only selected alignment yields speedups.")

	t1 := t.Rows[0].Cells[selected].Seconds
	fmt.Println("\nSpeedups (selected alignment):")
	for _, r := range t.Rows {
		fmt.Printf("  P=%2d: %.2fx\n", r.Procs, t1/r.Cells[selected].Seconds)
	}
}
