package deep

import "testing"

func TestDead(t *testing.T) { Dead(); _ = Box{}.TestOnly() }
