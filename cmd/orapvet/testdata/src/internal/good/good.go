// Package good exercises the idioms each rule must accept: reading (not
// writing) a Program, time.Duration values without wall-clock reads, and
// key handling that never reaches an output.
package good

import (
	"fmt"
	"log"
	"time"

	"vetfixture/internal/gf2"
	"vetfixture/internal/ir"
)

func ReadProgram(p *ir.Program) int { return p.NumNodes() }

func NotAProgram() string {
	var prog struct{ Name string }
	prog.Name = "fine"
	return prog.Name
}

func Budget(d time.Duration) time.Duration { return 2 * d }

// The nosecret rule must accept: redacted formatting, error wrapping
// via fmt.Errorf, and derived scalars of key vectors.
func DescribeKey(key []bool, seed gf2.Vec) (string, error) {
	if len(key) == 0 {
		return "", fmt.Errorf("empty key %v (seed %v)", key, seed)
	}
	return fmt.Sprintf("key of %d bits, seed of %d", len(key), seed.Len()), nil
}

// The log surface must accept the same clean idioms: derived scalars
// and innocuously named slices.
func LogKeyShape(key []bool, bits []bool) {
	log.Printf("key of %d bits", len(key))
	log.Println(bits)
}
