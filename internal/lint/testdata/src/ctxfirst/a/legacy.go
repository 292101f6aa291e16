package a

import "context"

// SolveOld carries the retired //lint:legacy directive inside legacy.go: no
// file name or directive exempts an entry point any more.
//
//lint:legacy
func SolveOld(n int) int { return SolveGood(context.Background(), n) } // want "exported entry point SolveOld must take a context.Context as its first parameter"

// SolveUnmarked carries no directive either.
func SolveUnmarked(n int) int { return n } // want "exported entry point SolveUnmarked must take a context.Context as its first parameter"
