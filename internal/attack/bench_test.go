package attack

import (
	"testing"

	"orap/internal/benchgen"
	"orap/internal/lock"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/rng"
)

// benchLocked builds the shared benchmark fixture: a scaled b20-profile
// circuit under weighted logic locking with an ideal combinational oracle.
func benchLocked(tb testing.TB, scale float64, keyBits int) (*netlist.Circuit, *lock.Locked) {
	tb.Helper()
	prof, err := benchgen.ProfileByName("b20")
	if err != nil {
		tb.Fatal(err)
	}
	circuit, err := benchgen.Generate(prof.Scale(scale), 2020)
	if err != nil {
		tb.Fatal(err)
	}
	l, err := lock.Weighted(circuit, lock.WeightedOptions{
		KeyBits:      keyBits,
		ControlWidth: 3,
		KeyGates:     keyBits,
		Rand:         rng.New(2020),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return circuit, l
}

// BenchmarkVerifyKey prices VerifyKey at the attack workload's design
// size (b20@0.012, seed 1): the stored key of the weighted, SARLock and
// TTLock locks, and the weighted and SARLock keys with bit 0 flipped,
// which SAT refutes. The weighted flip corrupts whenever its three
// control inputs match; the SARLock flip corrupts on a single pattern of
// the compared inputs.
func BenchmarkVerifyKey(b *testing.B) {
	for _, d := range verifyDesigns(b, verifySchemes, 0.012, 1) {
		switch d.scheme {
		case "weighted", "sarlock", "ttlock":
			b.Run(d.scheme, func(b *testing.B) { benchVerifyKey(b, d, d.l.Key, true) })
		}
		switch d.scheme {
		case "weighted", "sarlock":
			wrong := append([]bool(nil), d.l.Key...)
			wrong[0] = !wrong[0]
			b.Run(d.scheme+"-wrong", func(b *testing.B) { benchVerifyKey(b, d, wrong, false) })
		}
	}
}

func benchVerifyKey(b *testing.B, d verifyDesign, key []bool, want bool) {
	for i := 0; i < b.N; i++ {
		ok, err := VerifyKey(d.l.Circuit, d.orig, key)
		if err != nil {
			b.Fatal(err)
		}
		if ok != want {
			b.Fatalf("VerifyKey = %v, want %v", ok, want)
		}
	}
}

func BenchmarkSATAttack(b *testing.B) {
	orig, l := benchLocked(b, 0.008, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := oracle.NewComb(orig, nil)
		if err != nil {
			b.Fatal(err)
		}
		res, err := SAT(l.Circuit, o, Budgets{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("SAT attack did not converge")
		}
	}
}

// BenchmarkSATAttackSARLock prices the many-DIP path that
// BenchmarkSATAttack's few hard solves leave out: the SAT attack on the
// attack workload's 8-bit SARLock (b20@0.012, seed 1) through an ideal
// oracle, 2^8 − 1 easy incremental solves on a growing miter.
func BenchmarkSATAttackSARLock(b *testing.B) {
	var d verifyDesign
	for _, vd := range verifyDesigns(b, verifySchemes, 0.012, 1) {
		if vd.scheme == "sarlock" {
			d = vd
		}
	}
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		o, err := oracle.NewComb(d.orig, nil)
		if err != nil {
			b.Fatal(err)
		}
		res, err := SAT(d.l.Circuit, o, Budgets{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("SAT attack did not converge")
		}
		iters += res.Iterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iterations/op")
}

// BenchmarkSampleDisagreement prices the disagreement sampler behind
// the attack study: 1024 patterns through the oracle channel, 64 per
// crossing, with the candidate key evaluated word-parallel beside them.
func BenchmarkSampleDisagreement(b *testing.B) {
	orig, l := benchLocked(b, 0.008, 10)
	o, err := oracle.NewComb(orig, nil)
	if err != nil {
		b.Fatal(err)
	}
	wrong := make([]bool, l.Circuit.NumKeys())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SampleDisagreement(l.Circuit, wrong, o, 1024, rng.New(7)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppSAT prices a full AppSAT run, settlement sampling included.
func BenchmarkAppSAT(b *testing.B) {
	orig, l := benchLocked(b, 0.008, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := oracle.NewComb(orig, nil)
		if err != nil {
			b.Fatal(err)
		}
		res, err := AppSAT(l.Circuit, o, AppSATOptions{
			Budgets: Budgets{MaxIterations: 256},
			Rand:    rng.New(11),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Key == nil {
			b.Fatal("AppSAT returned no key")
		}
	}
}

// TestSATAttackRecoversBenchmarkKey checks that the attack
// BenchmarkSATAttack times converges to a functionally correct key.
func TestSATAttackRecoversBenchmarkKey(t *testing.T) {
	orig, l := benchLocked(t, 0.008, 10)
	o, err := oracle.NewComb(orig, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SAT(l.Circuit, o, Budgets{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("attack did not converge")
	}
	ok, err := VerifyKey(l.Circuit, orig, res.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("attack recovered an incorrect key")
	}
}
