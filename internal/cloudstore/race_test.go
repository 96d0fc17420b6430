//go:build race

package cloudstore

const raceEnabled = true
