//go:build !race

package protocols

const raceEnabled = false
