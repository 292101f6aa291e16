// Package a exercises the ctxfirst analyzer: exported
// Solve*/Sweep*/Batch*/Evaluate* entry points must take a context.Context
// first.
package a

import "context"

// SolveGood takes its context first and is silent.
func SolveGood(ctx context.Context, n int) int { return n }

func SolveBare(n int) int { return n } // want "exported entry point SolveBare must take a context.Context as its first parameter"

func SweepAll() {} // want "exported entry point SweepAll must take a context.Context as its first parameter"

func BatchRun(n int, ctx context.Context) {} // want "exported entry point BatchRun must take a context.Context as its first parameter"

func EvaluateBare(n int) int { return n } // want "exported entry point EvaluateBare must take a context.Context as its first parameter"

// EvaluateGood takes its context first and is silent.
func EvaluateGood(ctx context.Context, n int) int { return n }

// solveInternal is unexported and out of contract.
func solveInternal(n int) int { return n }

// Resolver is exported but not an entry-point prefix.
func Resolver() {}

// Solver methods are entry points too.
type Solver struct{}

func (s *Solver) SolveMethod(n int) int { return n } // want "exported entry point SolveMethod must take a context.Context as its first parameter"

func (s *Solver) SweepMethod(ctx context.Context) {}
