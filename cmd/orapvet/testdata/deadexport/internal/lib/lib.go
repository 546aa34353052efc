// Package lib is the deadexport fixture: cmd/app imports it, so every
// exported package-level func, and every exported method of an exported
// type, needs a reference from outside lib.
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

func helper() int { return Internal() + T{}.InsideOnly() }

// Redact is a sanctioned key formatter, exempt from the rule.
//
//vet:sanitizer
func Redact(bits []bool) string { return "" }

// T's exported methods are checked like the funcs above.
type T struct{}

// Method has no caller anywhere.
func (T) Method() int { return 7 }

// ForApp is called from cmd/app.
func (T) ForApp() int { return 8 }

// ForOtherTest is called only from another package's external test.
func (T) ForOtherTest() int { return 9 }

// ForExample is called only from examples/, under an alias.
func (T) ForExample() int { return 10 }

// ForBench is called only from the nested perfbench module.
func (T) ForBench() int { return 11 }

// TestedOnly is called only by lib's own tests.
func (T) TestedOnly() int { return 12 }

// InsideOnly is called inside lib only: the fix is to unexport it.
func (T) InsideOnly() int { return 13 }

// String has no caller, but fmt calls it by reflection through
// fmt.Stringer.
func (T) String() string { return "T" }

// Domain is a generic interface; cmd/app instantiates it by calling Run.
type Domain[V any] interface {
	Transfer(v V) V
}

// Run applies d once.
func Run[V any](d Domain[V], v V) V { return d.Transfer(v) }

// Incr implements Domain[int]. Its Transfer is called only through the
// interface, so it counts as used because Domain[int] is seen.
type Incr struct{}

// Transfer implements Domain.
func (Incr) Transfer(v int) int { return v + 1 }
