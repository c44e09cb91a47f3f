// Package deep is a fixture for the dead-export scan.
package deep

// Dead has no caller outside deep_test.go.
func Dead() {}
