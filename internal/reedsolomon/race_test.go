//go:build race

package reedsolomon

func init() { raceEnabled = true }
