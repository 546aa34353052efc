// Package user has a test file that does not typecheck.
package user

// Name is not checked: no package imports user.
func Name() string { return "user" }
