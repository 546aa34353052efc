// Package orphan is imported by no loaded package, so the rule leaves
// its exported funcs alone.
package orphan

// Lonely has no caller anywhere.
func Lonely() int { return 0 }
