//go:build race

package netserver

const raceEnabled = true
