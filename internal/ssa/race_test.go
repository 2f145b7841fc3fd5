//go:build race

package ssa

func init() { raceEnabled = true }
