// Package timeindexed keeps the old names of the time-indexed MILP encoding,
// which lives in package scheduler next to the "milp" improver that solves
// it. Nothing else remains here.
package timeindexed

import "hilp/internal/scheduler"

// Encoding is scheduler.MILPEncoding.
type Encoding = scheduler.MILPEncoding

// Build is scheduler.EncodeMILP.
var Build = scheduler.EncodeMILP
