//go:build race

package core

// raceEnabled trims the differential oracle's grid to three SoCs (one plain,
// one bandwidth-capped, one power-capped) under the race detector, which
// slows the solver about tenfold.
const raceEnabled = true
