//go:build race

package plan

// The race detector slows the count tests tenfold; they run one seed
// under it, since counts do not depend on it.
func init() { raceDetector = true }
