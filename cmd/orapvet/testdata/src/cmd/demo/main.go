// Command demo shows what the cmd/ layer may do that internal/ may
// not: wall-clock reads and math/rand are allowed here.
package main

import (
	"fmt"
	"math/rand"
	"time"
)

func main() {
	start := time.Now()
	fmt.Println(rand.Int())
	fmt.Println(time.Since(start))
}
