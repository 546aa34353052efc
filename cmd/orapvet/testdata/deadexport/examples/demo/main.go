package main

import mylib "deadfixture/internal/lib"

func main() {
	println(mylib.UsedByExample(), mylib.T{}.ForExample())
}
