package main

import "typeerrfixture/internal/lib"

func main() {
	println(lib.Used())
}
