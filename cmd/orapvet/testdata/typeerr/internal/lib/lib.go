// Package lib is imported by cmd/app, so deadexport checks it.
package lib

// Used is called from cmd/app.
func Used() int { return 1 }

// T is referenced from outside lib only by internal/user's test.
type T struct{}

// Probe is called only from internal/user's test file, which has a type
// error elsewhere: the call still resolves, so it still counts.
func (T) Probe() int { return 2 }
