package a

// SweepMarkedWrongFile carries the retired directive outside legacy.go, where
// it has no effect either.
//
//lint:legacy
func SweepMarkedWrongFile() {} // want "exported entry point SweepMarkedWrongFile must take a context.Context as its first parameter"
