//go:build race

package object

const raceEnabled = true
