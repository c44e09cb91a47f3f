// Package lib is a fixture for the dead-export scan.
package lib

// Limit is live through a bare use inside this package.
const Limit = 3

// T is live as Live's result type.
type T struct{ n int }

// Method has no caller; methods are outside the scan.
func (t T) Method() int { return t.n }

// Live is called from cmd/app through a renamed import.
func Live() T { return T{n: Limit} }

// Allowed has no caller and is excused by the fixture allowlist.
func Allowed() {}
