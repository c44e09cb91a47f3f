// Package lib is a fixture for the dead-export scan.
package lib

// Limit is live through a bare use inside this package.
const Limit = 3

// T is live as Live's result type.
type T struct{ n int }

// N is called from cmd/app.
func (t T) N() int { return t.n }

// String is called only by fmt, as a fmt.Stringer.
func (t T) String() string { return "T" }

// Live is called from cmd/app through a renamed import.
func Live() T { return T{n: Limit} }

// Orphan is named only in its own method's receiver.
type Orphan struct{}

// Unused has no caller.
func (Orphan) Unused() {}

// Allowed has no caller and is excused by the fixture allowlist.
func Allowed() {}

// Sizer is the module interface Total dispatches through.
type Sizer interface{ Size() int }

// Total is called from cmd/app and calls Size through Sizer.
func Total(s Sizer) int { return s.Size() }

// Base is embedded in Public.
type Base struct{}

// Name is public API, promoted into Public, which the root aliases.
func (Base) Name() string { return "base" }

// Public is aliased by the fixture's root package.
type Public struct{ Base }

// Get is public API through the root package's alias.
func (Public) Get() int { return 1 }
