//go:build race

package server

// raceEnabled guards allocation-ceiling assertions: the race detector
// instruments allocations, so per-op counts are not meaningful under -race.
const raceEnabled = true
