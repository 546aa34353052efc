package main

import "deadfixture/internal/lib"

func main() {
	println(lib.UsedByBench(), lib.T{}.ForBench())
}
