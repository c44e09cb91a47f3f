package main

import l "example.com/fixture/internal/lib"

func main() { _ = l.Live() }
