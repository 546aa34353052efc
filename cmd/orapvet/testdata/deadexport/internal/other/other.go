// Package other imports nothing from lib; only its test does.
package other

// Answer is referenced by cmd/app.
func Answer() int { return 42 }
