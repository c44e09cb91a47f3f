// Package deep is a fixture for the dead-export scan.
package deep

// Dead has no caller outside deep_test.go.
func Dead() {}

// Box reaches cmd/app as a lib.Sizer.
type Box struct{}

// Size is called only through the lib.Sizer interface.
func (Box) Size() int { return 1 }

// TestOnly has no caller outside deep_test.go.
func (Box) TestOnly() int { return 2 }
