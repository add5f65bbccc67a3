//go:build !race

package dsmpm2_test

const raceEnabled = false
