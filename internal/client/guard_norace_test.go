//go:build !race

package client

// raceEnabled mirrors the race-detector build tag; see guard_race_test.go.
const raceEnabled = false
