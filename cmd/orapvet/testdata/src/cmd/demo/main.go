// Command demo shows what the cmd/ layer may do that internal/ may
// not: wall-clock reads and math/rand are allowed here. It is also the
// outside caller of the ir and scan methods, so deadexport stays quiet
// on the fixture's library packages.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"vetfixture/internal/ir"
	"vetfixture/internal/scan"
)

func main() {
	start := time.Now()
	fmt.Println(rand.Int())
	var prog ir.Program
	prog.Rebrand("demo")
	fmt.Println(prog.Name, new(scan.Chip).Width())
	fmt.Println(time.Since(start))
}
