package main

import (
	"deadfixture/internal/lib"
	"deadfixture/internal/other"
)

func main() {
	println(lib.Used(), other.Answer(), lib.T{}.ForApp(), lib.Run(lib.Incr{}, 1))
}
