package vet

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureFindings analyzes the orapvet fixture module once per process.
var fixtureCache []Finding

func fixtureFindings(t testing.TB) []Finding {
	t.Helper()
	if fixtureCache != nil {
		return fixtureCache
	}
	root, err := filepath.Abs(filepath.Join("..", "..", "cmd", "orapvet", "testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Analyze(root, "vetfixture")
	if err != nil {
		t.Fatalf("Analyze(fixture): %v", err)
	}
	fixtureCache = fs
	return fs
}

// base returns the path of a finding relative to the fixture module.
func base(f Finding) string {
	name := filepath.ToSlash(f.Pos.Filename)
	if i := strings.Index(name, "testdata/src/"); i >= 0 {
		return name[i+len("testdata/src/"):]
	}
	return name
}

// want locates exactly one finding by rule, file suffix, line, and
// message substring.
func want(t *testing.T, fs []Finding, rule, file string, line int, msgPart string) Finding {
	t.Helper()
	var hits []Finding
	for _, f := range fs {
		if f.Rule == rule && base(f) == file && f.Pos.Line == line && strings.Contains(f.Msg, msgPart) {
			hits = append(hits, f)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("want exactly one %s finding at %s:%d containing %q, got %d\nall findings:\n%s",
			rule, file, line, msgPart, len(hits), dump(fs))
	}
	return hits[0]
}

func dump(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString("  " + base(f) + ":" + f.String() + "\n")
	}
	return b.String()
}

// hopAt asserts one hop of a witness chain.
func hopAt(t *testing.T, f Finding, i int, kind, descPart string, line int) {
	t.Helper()
	if i >= len(f.Chain) {
		t.Fatalf("finding %q: want hop %d, chain has %d hops", f.Msg, i, len(f.Chain))
	}
	h := f.Chain[i]
	if h.Kind != kind || !strings.Contains(h.Desc, descPart) || h.Pos.Line != line {
		t.Fatalf("finding %q hop %d: got %s %q line %d, want %s ~%q line %d",
			f.Msg, i, h.Kind, h.Desc, h.Pos.Line, kind, descPart, line)
	}
}

func TestFixtureTotals(t *testing.T) {
	fs := fixtureFindings(t)
	if len(fs) != 19 {
		t.Fatalf("fixture findings = %d, want 19\n%s", len(fs), dump(fs))
	}
	counts := map[string]int{}
	for _, f := range fs {
		dir := filepath.Dir(base(f))
		counts[dir]++
		if dir != "internal/bad" && dir != "internal/flow" {
			t.Errorf("finding outside internal/{bad,flow}: %s: %s", base(f), f.Msg)
		}
	}
	if counts["internal/bad"] != 11 || counts["internal/flow"] != 8 {
		t.Fatalf("split = bad:%d flow:%d, want bad:11 flow:8\n%s",
			counts["internal/bad"], counts["internal/flow"], dump(fs))
	}
}

// TestSyntacticRules pins the pre-engine rules byte-for-byte: the same
// files must keep firing at the same lines with the same messages.
func TestSyntacticRules(t *testing.T) {
	fs := fixtureFindings(t)
	want(t, fs, RuleNoRand, "internal/bad/bad.go", 6, "import of math/rand in internal/; use internal/rng")
	want(t, fs, RuleNoWallTime, "internal/bad/bad.go", 14, "time.Now in internal/")
	want(t, fs, RuleNoWallTime, "internal/bad/bad.go", 16, "time.Since in internal/")
	want(t, fs, RuleIRMutate, "internal/bad/bad.go", 19, "field Name")
	want(t, fs, RuleIRMutate, "internal/bad/bad.go", 23, "field Ops")
	f := want(t, fs, RuleShortRace, "internal/bad/bad_test.go", 5, "TestSpawnSkipsShort spawns goroutines but gates on testing.Short")
	if f.Sev != SevWarning {
		t.Errorf("shortrace severity = %v, want warning", f.Sev)
	}
}

// TestIntraproceduralSecrets pins the original nosecret findings — the
// ones the old syntactic rule caught — byte-identically.
func TestIntraproceduralSecrets(t *testing.T) {
	fs := fixtureFindings(t)
	want(t, fs, RuleNoSecret, "internal/bad/secret.go", 12, `fmt.Println passes raw key bits "key"`)
	want(t, fs, RuleNoSecret, "internal/bad/secret.go", 16, `fmt.Printf passes gf2.Vec "seed"`)
	alias := want(t, fs, RuleNoSecret, "internal/bad/secret.go", 22, `fmt.Println passes raw key bits "k" (aliased from "Key")`)
	hopAt(t, alias, 0, "source", "key bits Key", 21)
	hopAt(t, alias, 1, "sink", "fmt.Println", 22)
	want(t, fs, RuleNoSecret, "internal/bad/logleak.go", 9, `log.Printf passes raw key bits "keyBits"`)
	want(t, fs, RuleNoSecret, "internal/bad/logleak.go", 13, `(*log.Logger).Println passes raw key bits "masterKey"`)

	secrets := 0
	for _, f := range fs {
		if f.Rule == RuleNoSecret && base(f) == "internal/bad/secret.go" {
			secrets++
		}
	}
	if secrets != 3 {
		t.Errorf("secret.go nosecret findings = %d, want 3", secrets)
	}
}

// TestInterproceduralChains exercises the taint engine's witness
// chains: helper calls, two-deep chains, methods, closures, variadics,
// struct values, and raw stdout writes.
func TestInterproceduralChains(t *testing.T) {
	fs := fixtureFindings(t)

	helper := want(t, fs, RuleNoSecret, "internal/flow/flow.go", 22,
		`key material from "Key" reaches fmt.Println via flow.emit`)
	hopAt(t, helper, 0, "source", "key bits Key", 22)
	hopAt(t, helper, 1, "call", "flow.emit", 22)
	hopAt(t, helper, 2, "sink", "fmt.Println", 17)

	deep := want(t, fs, RuleNoSecret, "internal/flow/flow.go", 32,
		`key material from "Key" reaches fmt.Println via flow.relay`)
	if len(deep.Chain) != 4 {
		t.Fatalf("Deep chain hops = %d, want 4", len(deep.Chain))
	}
	hopAt(t, deep, 1, "call", "flow.relay", 32)
	hopAt(t, deep, 2, "call", "flow.emit", 27)
	hopAt(t, deep, 3, "sink", "fmt.Println", 17)

	method := want(t, fs, RuleNoSecret, "internal/flow/flow.go", 49,
		`reaches fmt.Println via flow.holder.show`)
	hopAt(t, method, 1, "call", "flow.holder.show", 49)
	hopAt(t, method, 2, "sink", "fmt.Println", 43)

	capture := want(t, fs, RuleNoSecret, "internal/flow/flow.go", 56,
		`fmt.Println passes raw key bits "b" (aliased from "Key")`)
	hopAt(t, capture, 0, "source", "key bits Key", 54)

	variadic := want(t, fs, RuleNoSecret, "internal/flow/flow.go", 68,
		`reaches fmt.Println via flow.tee`)
	hopAt(t, variadic, 1, "call", "flow.tee", 68)

	whole := want(t, fs, RuleNoSecret, "internal/flow/flow.go", 74,
		`fmt.Printf passes scan.Config "cfg" whose field Key holds key material`)
	hopAt(t, whole, 0, "source", "scan.Config value cfg", 74)

	want(t, fs, RuleNoSecret, "internal/flow/flow.go", 80, `fmt.Sprint passes raw key bits "Key"`)
	want(t, fs, RuleNoSecret, "internal/flow/flow.go", 80, `os.Stdout.WriteString receives key material derived from "Key"`)
}

// TestDeadExport pins the deadexport rule on its own fixture module:
// lib is imported by cmd/app, so its exported funcs and the exported
// methods of its exported types fire unless code outside lib refers to
// them — another package's production code or tests, examples/ (through
// an import alias) or the nested perfbench module. A method that
// implements an interface seen in the module (a generic interface
// instantiated in cmd/app, or fmt.Stringer) counts as used. lib's own
// tests, internal and external, do not count; sanitizers and the
// never-imported orphan package are exempt.
func TestDeadExport(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", "cmd", "orapvet", "testdata", "deadexport"))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Analyze(root, "deadfixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range fs {
		rel, err := filepath.Rel(root, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s:%d: [%s] %s", filepath.ToSlash(rel), f.Pos.Line, f.Rule, f.Msg))
	}
	want := []string{
		"internal/lib/lib.go:19: [deadexport] lib.Dead is exported but no other package refers to it; delete it",
		"internal/lib/lib.go:23: [deadexport] lib.OwnTestOnly is exported but no other package refers to it; delete it",
		"internal/lib/lib.go:26: [deadexport] lib.Internal is exported but no other package refers to it; unexport it",
		"internal/lib/lib.go:39: [deadexport] lib.T.Method is exported but no other package refers to it; delete it",
		"internal/lib/lib.go:54: [deadexport] lib.T.TestedOnly is exported but no other package refers to it; delete it",
		"internal/lib/lib.go:57: [deadexport] lib.T.InsideOnly is exported but no other package refers to it; unexport it",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("deadexport findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestTypeErrorKeepsReferences checks that a test file which fails to
// typecheck is a load error naming the file, and that the references
// still resolving in it keep counting: lib.T.Probe, called only there,
// must not turn into a deadexport finding.
func TestTypeErrorKeepsReferences(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", "cmd", "orapvet", "testdata", "typeerr"))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Analyze(root, "typeerrfixture")
	if err == nil || !strings.Contains(err.Error(), filepath.Join("internal", "user", "user_test.go")) {
		t.Fatalf("Analyze error = %v, want a type error naming internal/user/user_test.go", err)
	}
	if len(fs) != 0 {
		t.Fatalf("findings = %d, want 0:\n%s", len(fs), dump(fs))
	}
}

// TestRepoIsClean runs the engine over this repository itself: the
// production tree must produce zero findings, or CI would be red.
func TestRepoIsClean(t *testing.T) {
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Analyze(root, modPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		var b strings.Builder
		for _, f := range fs {
			b.WriteString("  " + f.String() + "\n")
		}
		t.Fatalf("repo self-run produced %d findings, want 0:\n%s", len(fs), b.String())
	}
	if modPath != "orap" {
		t.Errorf("module path = %q, want orap", modPath)
	}
}

// TestFindModule checks module discovery walks up from a subdirectory.
func TestFindModule(t *testing.T) {
	root, modPath, err := FindModule(filepath.Join("..", "..", "internal", "gf2"))
	if err != nil {
		t.Fatal(err)
	}
	if modPath != "orap" {
		t.Errorf("module path = %q, want orap", modPath)
	}
	if _, _, err := FindModule(t.TempDir()); err == nil {
		t.Error("FindModule outside any module: want error, got nil")
	}
	_ = root
}

// BenchmarkVetModule measures a full fixture-module analysis: load,
// typecheck, fixpoint, and report.
func BenchmarkVetModule(b *testing.B) {
	root, err := filepath.Abs(filepath.Join("..", "..", "cmd", "orapvet", "testdata", "src"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(root, "vetfixture"); err != nil {
			b.Fatal(err)
		}
	}
}
