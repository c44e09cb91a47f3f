// Package fixture is the root package of the dead-export scan's fixture.
package fixture

import "example.com/fixture/internal/lib"

// Public makes lib.Public, and the Base it embeds, public API.
type Public = lib.Public
