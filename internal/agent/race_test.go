//go:build race

package agent

const raceEnabled = true
