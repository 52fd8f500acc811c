//go:build race

package container

func init() { raceEnabled = true }
