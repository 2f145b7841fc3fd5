//go:build race

package phpf

func init() { raceEnabled = true }
