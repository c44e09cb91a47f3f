package main

import (
	l "example.com/fixture/internal/lib"
	"example.com/fixture/internal/lib/deep"
)

func main() { _, _ = l.Live().N(), l.Total(deep.Box{}) }
