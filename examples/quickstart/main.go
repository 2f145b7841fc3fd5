// Quickstart: compile a small HPF-style program at two optimization levels
// and compare the compiler's mapping decisions and the simulated execution.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"phpf"
	"phpf/internal/programs"
)

var source = programs.Smooth(4096, 20)

func main() {
	for _, cfg := range []struct {
		name string
		opts phpf.Options
	}{
		{"naive (all scalars replicated)", phpf.NaiveOptions()},
		{"selected alignment (the paper's algorithm)", phpf.SelectedOptions()},
	} {
		c, err := phpf.Compile(source, 16, cfg.opts)
		if err != nil {
			log.Fatal(err)
		}
		out, err := c.Execute(context.Background(), phpf.Simulator(), phpf.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s\n", cfg.name)
		fmt.Printf("   simulated time on 16 processors: %.4f s\n", out.Time)
		fmt.Printf("   communication: %v\n", out.Stats)
	}

	// Show what the compiler decided for the privatizable scalars.
	c, err := phpf.Compile(source, 16, phpf.SelectedOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== mapping decisions (selected alignment)")
	fmt.Print(c.MappingReport())
}
