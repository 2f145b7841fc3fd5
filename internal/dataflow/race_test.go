//go:build race

package dataflow

func init() { raceEnabled = true }
