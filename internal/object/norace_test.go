//go:build !race

package object

const raceEnabled = false
