// Package lib is the deadexport fixture: cmd/app imports it, so every
// exported package-level func needs a reference from outside lib.
package lib

// Used is called from cmd/app's production code.
func Used() int { return helper() }

// UsedByTest is referenced only from another package's test file.
func UsedByTest() int { return 1 }

// UsedByExample is referenced only from examples/, under an alias.
func UsedByExample() int { return 2 }

// UsedByBench is referenced only from the nested perfbench module.
func UsedByBench() int { return 3 }

// Dead has no reference anywhere.
func Dead() int { return 4 }

// OwnTestOnly is referenced only by lib's own tests, internal and
// external; those do not count.
func OwnTestOnly() int { return 5 }

// Internal is used inside lib only: the fix is to unexport it.
func Internal() int { return 6 }

func helper() int { return Internal() }

// Redact is a sanctioned key formatter, exempt from the rule.
//
//vet:sanitizer
func Redact(bits []bool) string { return "" }

// T's exported methods are outside the rule's scope.
type T struct{}

// Method has no caller, but only package-level funcs are checked.
func (T) Method() int { return 7 }
