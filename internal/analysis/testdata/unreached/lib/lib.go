// Package lib is the unreached fixture's library.
package lib

import (
	"errors"
	"fmt"
)

// Value prints through fmt.
type Value struct{ N int }

// String is reached only through fmt.Stringer: no finding.
func (v Value) String() string { return fmt.Sprintf("value %d", v.N) }

// ErrBase is the sentinel main looks for.
var ErrBase = errors.New("base")

// WrapError wraps an error.
type WrapError struct{ err error }

func (e *WrapError) Error() string { return "wrapped: " + e.err.Error() }

// Unwrap is reached only through errors.Is: no finding.
func (e *WrapError) Unwrap() error { return e.err }

// Wrap is called by main.
func Wrap(err error) error { return &WrapError{err} }

// table is a package-level variable: its initializer runs before main, so
// double is reached although nothing calls it by name.
var table = map[string]func(int) int{"double": double}

func double(x int) int { return 2 * x }

// Lookup is called by main.
func Lookup(name string) func(int) int { return table[name] }

// Dead is exported but no program calls it: a finding.
func Dead() int { return helper() + 1 }

// helper is reached only from Dead: a finding too.
func helper() int { return 41 }

// Kept is dead as well, but allowed: suppressed.
//
//dtgp:allow(unreached) kept for the fixture's suppression case
func Kept() int { return 7 }
