//go:build !race

package server

// raceEnabled guards allocation-ceiling assertions; see race_enabled_test.go.
const raceEnabled = false
