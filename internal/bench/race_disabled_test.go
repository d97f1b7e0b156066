//go:build !race

package bench

// raceEnabled guards allocation-ceiling assertions; see race_enabled_test.go.
const raceEnabled = false
