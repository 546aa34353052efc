// Firing and clean cases for every netlist audit rule, on hand-built
// circuits small enough to verify the expected finding by inspection.
package audit_test

import (
	"fmt"
	"strings"
	"testing"

	"orap/internal/audit"
	"orap/internal/check"
	"orap/internal/ir"
	"orap/internal/netlist"
)

func addIn(t *testing.T, c *netlist.Circuit, name string) int {
	t.Helper()
	id, err := c.AddInput(name)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func addKey(t *testing.T, c *netlist.Circuit, name string) int {
	t.Helper()
	id, err := c.AddKeyInput(name)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func markOut(t *testing.T, c *netlist.Circuit, ids ...int) {
	t.Helper()
	for _, id := range ids {
		if err := c.MarkOutput(id); err != nil {
			t.Fatal(err)
		}
	}
}

func mustAudit(t *testing.T, c *netlist.Circuit) *audit.Report {
	t.Helper()
	prog, err := ir.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	rep := audit.AnalyzeProgram(prog, c, audit.Options{})
	return rep
}

// XOR(k, k) is constant, so the key bit cannot reach the output: the
// inert-bit error and the absorption warning must both fire, the
// warning anchored at the absorbing gate.
func TestRemovabilityInertKeyBitFires(t *testing.T) {
	c := netlist.New("inert")
	a := addIn(t, c, "a")
	k := addKey(t, c, "keyinput0")
	g := c.MustAddGate(netlist.Xor, "g", k, k)
	h := c.MustAddGate(netlist.And, "h", a, g)
	markOut(t, c, h)

	rep := mustAudit(t, c)
	fs := rep.ByRule(audit.RuleKeyRemovable)
	if len(fs) == 0 {
		t.Fatalf("key-removable did not fire:\n%s", rep)
	}
	var sawInert, sawAbsorb bool
	for _, f := range fs {
		if f.Sev == check.Error && f.KeyBit == 0 {
			sawInert = true
		}
		if f.Sev == check.Warning && f.Node == g {
			sawAbsorb = true
		}
	}
	if !sawInert {
		t.Errorf("missing error-severity inert-key finding:\n%s", rep)
	}
	if !sawAbsorb {
		t.Errorf("missing absorption warning at gate %q:\n%s", c.NameOf(g), rep)
	}
}

// A key input with no fanout is dead key material — the weighted-lock
// remainder-bit artifact — and only warns.
func TestRemovabilityDeadKeyMaterialWarns(t *testing.T) {
	c := netlist.New("dead")
	a := addIn(t, c, "a")
	addKey(t, c, "keyinput0")
	o := c.MustAddGate(netlist.Buf, "o", a)
	markOut(t, c, o)

	rep := mustAudit(t, c)
	fs := rep.ByRule(audit.RuleKeyRemovable)
	if len(fs) != 1 || fs[0].Sev != check.Warning {
		t.Fatalf("want exactly one warning, got:\n%s", rep)
	}
	if !strings.Contains(fs[0].Msg, "drives no gate") {
		t.Errorf("unexpected message: %s", fs[0].Msg)
	}
	if rep.HasErrors() {
		t.Errorf("dead key material must not be an error:\n%s", rep)
	}
}

// A key bit a primary output genuinely depends on is clean — including
// through XOR, where both constant-propagation passes stay unknown and
// only the equality tracking tells dependence apart.
func TestRemovabilityCleanOnLiveKey(t *testing.T) {
	c := netlist.New("live")
	a := addIn(t, c, "a")
	k := addKey(t, c, "keyinput0")
	o := c.MustAddGate(netlist.Xor, "o", a, k)
	markOut(t, c, o)

	rep := mustAudit(t, c)
	if fs := rep.ByRule(audit.RuleKeyRemovable); len(fs) != 0 {
		t.Fatalf("key-removable fired on a live key bit:\n%s", rep)
	}
}

// Every key-removable and key-leak finding must land on its own key
// bit, whichever 64-bit slice of the pair domain carries the bit. Each
// of 130 key bits gets one of four shapes, and the expected findings
// follow from the shape alone.
func TestRemovabilityAcrossKeySlices(t *testing.T) {
	c := netlist.New("slices")
	a := addIn(t, c, "a")
	b := addIn(t, c, "b")
	zero, err := c.AddConst(false, "zero")
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		rule string
		sev  check.Severity
		bit  int
		node int
	}
	want := map[key]bool{}
	for i := 0; i < 130; i++ {
		k := addKey(t, c, fmt.Sprintf("keyinput%d", i))
		gate := func(typ netlist.GateType, prefix string, fanin ...int) int {
			return c.MustAddGate(typ, fmt.Sprintf("%s%d", prefix, i), fanin...)
		}
		switch i % 4 {
		case 0: // leaks at x; AND with constant 0 absorbs it at h
			x := gate(netlist.Xor, "x", a, k)
			h := gate(netlist.And, "h", x, zero)
			markOut(t, c, x, gate(netlist.Or, "o", h, b))
			want[key{audit.RuleKeyLeak, check.Warning, i, x}] = true
			want[key{audit.RuleKeyRemovable, check.Warning, i, h}] = true
		case 1: // XOR(k, k) absorbs it, so no output depends on it
			g := gate(netlist.Xor, "g", k, k)
			markOut(t, c, gate(netlist.And, "o", a, g))
			want[key{audit.RuleKeyRemovable, check.Warning, i, g}] = true
			want[key{audit.RuleKeyRemovable, check.Error, i, k}] = true
		case 2: // dead key material
			want[key{audit.RuleKeyRemovable, check.Warning, i, k}] = true
		case 3: // live, without either proof
			markOut(t, c, gate(netlist.And, "o", a, k))
		}
	}

	rep := mustAudit(t, c)
	got := map[key]bool{}
	for _, f := range rep.Findings {
		if f.Rule == audit.RuleKeyRemovable || f.Rule == audit.RuleKeyLeak {
			got[key{f.Rule, f.Sev, f.KeyBit, f.Node}] = true
		}
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing %s %v on key bit %d at %q", k.rule, k.sev, k.bit, c.NameOf(k.node))
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("unexpected %s %v on key bit %d at %q", k.rule, k.sev, k.bit, c.NameOf(k.node))
		}
	}
}

func TestFingerprintXorDirectFires(t *testing.T) {
	c := netlist.New("epic")
	a := addIn(t, c, "a")
	b := addIn(t, c, "b")
	k := addKey(t, c, "keyinput0")
	n1 := c.MustAddGate(netlist.And, "n1", a, b)
	kg := c.MustAddGate(netlist.Xor, "kg", n1, k)
	markOut(t, c, kg)

	rep := mustAudit(t, c)
	fs := rep.ByRule(audit.RuleKeyFingerprint)
	if len(fs) != 1 || fs[0].Sev != check.Warning {
		t.Fatalf("want one warning, got:\n%s", rep)
	}
	if !strings.Contains(fs[0].Msg, "EPIC") || fs[0].Node != kg {
		t.Errorf("unexpected finding: %+v", fs[0])
	}
	if !strings.Contains(fs[0].Msg, "anonymity set") {
		t.Errorf("finding lacks the anonymity score: %s", fs[0].Msg)
	}
}

func TestFingerprintPointFunctionFires(t *testing.T) {
	c := netlist.New("sarlockish")
	a := addIn(t, c, "a")
	b := addIn(t, c, "b")
	k := addKey(t, c, "keyinput0")
	cmp := c.MustAddGate(netlist.Xnor, "cmp", a, k)
	o := c.MustAddGate(netlist.And, "o", b, cmp)
	markOut(t, c, o)

	rep := mustAudit(t, c)
	fs := rep.ByRule(audit.RuleKeyFingerprint)
	if len(fs) != 1 || fs[0].Sev != check.Warning {
		t.Fatalf("want one warning, got:\n%s", rep)
	}
	if !strings.Contains(fs[0].Msg, "point-function") || fs[0].Node != cmp {
		t.Errorf("unexpected finding: %+v", fs[0])
	}
}

// A weighted-locking control cone (key bits mixing in an AND before
// touching the circuit) is only an info note, per key bit.
func TestFingerprintControlConeIsInfo(t *testing.T) {
	c := netlist.New("weightedish")
	a := addIn(t, c, "a")
	b := addIn(t, c, "b")
	k0 := addKey(t, c, "keyinput0")
	k1 := addKey(t, c, "keyinput1")
	ctrl := c.MustAddGate(netlist.And, "ctrl", k0, k1)
	n1 := c.MustAddGate(netlist.And, "n1", a, b)
	kg := c.MustAddGate(netlist.Xor, "kg", n1, ctrl)
	markOut(t, c, kg)

	rep := mustAudit(t, c)
	fs := rep.ByRule(audit.RuleKeyFingerprint)
	if len(fs) != 2 {
		t.Fatalf("want one info note per key bit, got:\n%s", rep)
	}
	for _, f := range fs {
		if f.Sev != check.Info {
			t.Errorf("control cone must be info severity, got %v: %s", f.Sev, f.Msg)
		}
		if !strings.Contains(f.Msg, "control cone") {
			t.Errorf("unexpected message: %s", f.Msg)
		}
	}
}

// A key bit feeding a plain AND against a circuit signal matches no
// known key-gate signature and stays silent.
func TestFingerprintCleanOnUnclassifiedShape(t *testing.T) {
	c := netlist.New("diffuse")
	a := addIn(t, c, "a")
	k := addKey(t, c, "keyinput0")
	g := c.MustAddGate(netlist.And, "g", a, k)
	markOut(t, c, g)

	rep := mustAudit(t, c)
	if fs := rep.ByRule(audit.RuleKeyFingerprint); len(fs) != 0 {
		t.Fatalf("fingerprint fired on an unclassified shape:\n%s", rep)
	}
}

func TestCorruptibilityLowCoverageFires(t *testing.T) {
	c := netlist.New("narrow")
	a := addIn(t, c, "a")
	b := addIn(t, c, "b")
	k := addKey(t, c, "keyinput0")
	o1 := c.MustAddGate(netlist.Xor, "o1", a, k)
	o2 := c.MustAddGate(netlist.Buf, "o2", b)
	markOut(t, c, o1, o2)

	rep := mustAudit(t, c)
	fs := rep.ByRule(audit.RuleLowCorruptibility)
	if len(fs) != 1 || fs[0].Sev != check.Warning || fs[0].KeyBit != 0 {
		t.Fatalf("want one warning on key bit 0, got:\n%s", rep)
	}
}

func TestCorruptibilityCleanOnWideCone(t *testing.T) {
	c := netlist.New("wide")
	a := addIn(t, c, "a")
	b := addIn(t, c, "b")
	k := addKey(t, c, "keyinput0")
	o1 := c.MustAddGate(netlist.Xor, "o1", a, k)
	o2 := c.MustAddGate(netlist.And, "o2", b, o1)
	markOut(t, c, o1, o2)

	rep := mustAudit(t, c)
	if fs := rep.ByRule(audit.RuleLowCorruptibility); len(fs) != 0 {
		t.Fatalf("low-corruptibility fired on a two-output cone:\n%s", rep)
	}
}

// Single-output circuits never fire the default threshold: one output
// is all there is to corrupt.
func TestCorruptibilitySingleOutputClean(t *testing.T) {
	c := netlist.New("single")
	a := addIn(t, c, "a")
	k := addKey(t, c, "keyinput0")
	o := c.MustAddGate(netlist.Xor, "o", a, k)
	markOut(t, c, o)

	rep := mustAudit(t, c)
	if fs := rep.ByRule(audit.RuleLowCorruptibility); len(fs) != 0 {
		t.Fatalf("low-corruptibility fired on a single-output circuit:\n%s", rep)
	}
}

func TestCorruptibilityThresholdOption(t *testing.T) {
	c := netlist.New("threshold")
	a := addIn(t, c, "a")
	b := addIn(t, c, "b")
	d := addIn(t, c, "d")
	k := addKey(t, c, "keyinput0")
	o1 := c.MustAddGate(netlist.Xor, "o1", a, k)
	o2 := c.MustAddGate(netlist.And, "o2", b, o1)
	o3 := c.MustAddGate(netlist.Buf, "o3", d)
	markOut(t, c, o1, o2, o3)

	prog, err := ir.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	rep := audit.AnalyzeProgram(prog, c, audit.Options{})
	if fs := rep.ByRule(audit.RuleLowCorruptibility); len(fs) != 0 {
		t.Fatalf("default threshold fired at coverage 2:\n%s", rep)
	}
	rep = audit.AnalyzeProgram(prog, c, audit.Options{MinCorruptPOs: 3})
	if fs := rep.ByRule(audit.RuleLowCorruptibility); len(fs) != 1 {
		t.Fatalf("raised threshold did not fire:\n%s", rep)
	}
}

func TestUnlockedCircuitEmptyReport(t *testing.T) {
	c := netlist.New("plain")
	a := addIn(t, c, "a")
	b := addIn(t, c, "b")
	o := c.MustAddGate(netlist.And, "o", a, b)
	markOut(t, c, o)

	rep := mustAudit(t, c)
	if len(rep.Findings) != 0 {
		t.Fatalf("findings on an unlocked circuit:\n%s", rep)
	}
	if rep.HasErrors() || rep.Err() != nil {
		t.Fatal("empty report reports errors")
	}
}

func TestReportHelpers(t *testing.T) {
	c := netlist.New("helpers")
	a := addIn(t, c, "a")
	k := addKey(t, c, "keyinput0")
	g := c.MustAddGate(netlist.Xor, "g", k, k)
	h := c.MustAddGate(netlist.And, "h", a, g)
	markOut(t, c, h)

	rep := mustAudit(t, c)
	if !rep.HasErrors() {
		t.Fatalf("expected errors:\n%s", rep)
	}
	if rep.Err() == nil {
		t.Fatal("Err() returned nil with error findings present")
	}
	errs, warns, _ := rep.Counts()
	if errs == 0 || warns == 0 {
		t.Fatalf("Counts() = %d errors, %d warnings; want both nonzero", errs, warns)
	}
	if len(rep.AtLeast(check.Warning)) < len(rep.Errors()) {
		t.Fatal("AtLeast(Warning) smaller than Errors()")
	}
	s := rep.String()
	if !strings.Contains(s, "[key-removable]") || !strings.Contains(s, "ref:") {
		t.Fatalf("String() misses rule tag or reference:\n%s", s)
	}
}
