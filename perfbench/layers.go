package main

// This file is the benchmark's one adapter over the repository: every
// call into orap/internal/... lives here, each wrapped in the span of the
// layer it enters. Where the repository keeps a netlist-taking twin of an
// ir.Program function, the Program form is called (audit.AnalyzeProgram,
// faultsim.ForProgram).

import (
	"errors"
	"fmt"
	"math"

	"orap/internal/atpg"
	"orap/internal/attack"
	"orap/internal/audit"
	"orap/internal/bench"
	"orap/internal/benchgen"
	"orap/internal/check"
	"orap/internal/faultsim"
	"orap/internal/ir"
	"orap/internal/lock"
	"orap/internal/metrics"
	"orap/internal/netlist"
	"orap/internal/oracle"
	"orap/internal/orap"
	"orap/internal/rng"
	"orap/internal/sat"
	"orap/internal/scan"
	"orap/internal/synth"
)

// env is what an op sees: the tracer and the effort counters the public
// APIs return, summed over the run.
type env struct {
	tr  *tracer
	ctr map[string]float64
}

// opFunc runs one op on its design and returns the op's deterministic
// outputs as one line for the run digest. A non-nil error is an op that
// failed or broke an invariant.
type opFunc func(x *env, d *design) (string, error)

// spec names one design of a set-up: a benchmark profile at a scale,
// generated from a seed and locked with one scheme.
type spec struct {
	profile string
	scale   float64
	seed    uint64
	// scheme is tablei (weighted locking at the profile's Table I LFSR
	// size and control width), weighted, sarlock, antisat, ttlock or
	// randomxor; every scheme but tablei uses keyBits key inputs.
	scheme  string
	keyBits int
	// protect also synthesizes the design's OraP-basic configuration.
	protect bool
}

// design is a built spec: the original and locked netlists as re-parsed
// from their .bench text, the correct key and, with spec.protect, the
// OraP-basic chip configuration.
type design struct {
	spec
	name   string
	prof   benchgen.Profile
	orig   *netlist.Circuit
	locked *netlist.Circuit
	key    []bool
	cfg    scan.Config
}

// deriveSeed draws an instance seed from the run seed and a label.
func deriveSeed(seed uint64, label string) uint64 { return rng.NewNamed(seed, label).Uint64() }

// build generates, locks, formats and re-parses one design.
func build(x *env, s spec) (*design, error) {
	prof, err := benchgen.ProfileByName(s.profile)
	if err != nil {
		return nil, err
	}
	d := &design{spec: s, prof: prof.Scale(s.scale)}
	d.name = fmt.Sprintf("%s/%s/%x", d.prof.Name, s.scheme, s.seed)
	var c *netlist.Circuit
	if err := x.tr.span("benchgen.generate", func() (err error) {
		c, err = benchgen.Generate(d.prof, s.seed)
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: %w", d.name, err)
	}
	var l *lock.Locked
	if err := x.tr.span("lock", func() (err error) {
		l, err = lockDesign(c, d.prof, s)
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: %w", d.name, err)
	}
	if d.orig, err = roundTrip(x, c); err != nil {
		return nil, fmt.Errorf("%s: %w", d.name, err)
	}
	if d.locked, err = roundTrip(x, l.Circuit); err != nil {
		return nil, fmt.Errorf("%s: %w", d.name, err)
	}
	d.key = l.Key
	if s.protect {
		if err := x.tr.span("orap.protect", func() (err error) {
			d.cfg, err = protect(d, scan.OraPBasic)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
	}
	return d, nil
}

func lockDesign(c *netlist.Circuit, prof benchgen.Profile, s spec) (*lock.Locked, error) {
	r := rng.NewNamed(s.seed, "perfbench/lock/"+s.scheme)
	switch s.scheme {
	case "tablei":
		return lock.Weighted(c, lock.WeightedOptions{KeyBits: prof.LFSRSize, ControlWidth: prof.CtrlInputs, Rand: r})
	case "weighted":
		return lock.Weighted(c, lock.WeightedOptions{KeyBits: s.keyBits, ControlWidth: 3, KeyGates: s.keyBits, Rand: r})
	case "sarlock":
		return lock.SARLock(c, s.keyBits, r)
	case "antisat":
		return lock.AntiSAT(c, s.keyBits/2, r) // the key stacks two halves
	case "ttlock":
		return lock.TTLock(c, s.keyBits, r)
	case "randomxor":
		return lock.RandomXOR(c, s.keyBits, r)
	}
	return nil, fmt.Errorf("unknown locking scheme %q", s.scheme)
}

// roundTrip writes c as .bench text and loads it back the way
// check.LoadFile does: parse, then the full check rule set, failing on
// any error-severity diagnostic.
func roundTrip(x *env, c *netlist.Circuit) (*netlist.Circuit, error) {
	var src string
	if err := x.tr.span("bench.format", func() (err error) {
		src, err = bench.FormatString(c)
		return err
	}); err != nil {
		return nil, err
	}
	var p *netlist.Circuit
	if err := x.tr.span("bench.parse", func() (err error) {
		p, err = bench.ParseString(src, c.Name)
		return err
	}); err != nil {
		return nil, err
	}
	return p, x.tr.span("check", func() error { return check.Circuit(p).Err() })
}

// protect builds the design's chip configuration at a protection level,
// with the package-pin split of its profile.
func protect(d *design, p scan.Protection) (scan.Config, error) {
	return orap.Protect(d.locked, d.key, d.prof.Pins, d.prof.PinOuts, p,
		orap.Options{Rand: rng.NewNamed(d.seed, "perfbench/orap")})
}

func (x *env) addSAT(st sat.Stats) {
	x.ctr["sat.conflicts"] += float64(st.Conflicts)
	x.ctr["sat.decisions"] += float64(st.Decisions)
	x.ctr["sat.propagations"] += float64(st.Propagations)
}

// Chip protection levels of the attack workload.
const (
	unprotected = "none"
	orapBasic   = "orap"
)

var attacks = []string{"sat", "doubledip", "appsat", "hill"}

// attackOp is one run of `orapattack -oracle scan`: protect and unlock
// the chip, open a channel session on its scan oracle, run the attack,
// verify the key by SAT and, when it is wrong, sample how often it
// disagrees with the original.
func attackOp(atk, prot string) opFunc {
	return func(x *env, d *design) (string, error) {
		level := scan.None
		if prot == orapBasic {
			level = scan.OraPBasic
		}
		var ch *scan.Chip
		if err := x.tr.span("orap.protect", func() error {
			cfg, err := protect(d, level)
			if err != nil {
				return err
			}
			ch, err = scan.New(cfg)
			return err
		}); err != nil {
			return "", err
		}
		if err := x.tr.span("scan.unlock", func() error { return ch.Unlock(nil) }); err != nil {
			return "", err
		}
		sess := oracle.NewSession(oracle.NewScan(ch), 0)
		var o oracle.Oracle = sess
		if x.tr.on {
			o = &timedOracle{Session: sess, tr: x.tr}
		}
		var res *attack.Result
		aerr := x.tr.span("attack.solve", func() (err error) {
			res, err = runAttack(atk, d, o)
			return err
		})
		st := sess.Stats()
		x.ctr["attack.runs"]++
		x.ctr["oracle.queries"] += float64(st.Queries)
		x.ctr["oracle.unique"] += float64(st.Unique)
		x.ctr["oracle.hits"] += float64(st.CacheHits)
		x.ctr["oracle.chip_calls"] += float64(st.OracleCalls)
		x.ctr["oracle.batch_calls"] += float64(st.BatchCalls)
		x.ctr["scan.cycles"] += float64(ch.Cycles())
		if aerr != nil && !errors.Is(aerr, attack.ErrIterationBudget) {
			return "", fmt.Errorf("%s: %s via %s: %w", d.name, atk, prot, aerr)
		}
		x.ctr["attack.iterations"] += float64(res.Iterations)
		x.addSAT(res.SolverStats)
		if res.Converged {
			x.ctr["attack.converged"]++
		}
		keyOK, dis := false, 1.0
		if res.Key != nil {
			if err := x.tr.span("attack.verify", func() (err error) {
				keyOK, err = attack.VerifyKey(d.locked, d.orig, res.Key)
				return err
			}); err != nil {
				return "", err
			}
			x.ctr["attack.keys."+prot]++
			dis = 0
			if keyOK {
				x.ctr["attack.key_ok."+prot]++
			} else if err := x.tr.span("attack.disagree", func() error {
				ref, err := oracle.NewComb(d.orig, nil)
				if err != nil {
					return err
				}
				dis, err = attack.SampleDisagreement(d.locked, res.Key, ref, 256, rng.NewNamed(d.seed, "perfbench/disagree"))
				return err
			}); err != nil {
				return "", err
			}
		}
		out := fmt.Sprintf("%s %s/%s converged=%t iter=%d queries=%d unique=%d conflicts=%d key=%t disagree=%.6f budget=%t",
			d.name, atk, prot, res.Converged, res.Iterations, st.Queries, st.Unique,
			res.SolverStats.Conflicts, keyOK, dis, aerr != nil)
		switch {
		case prot == unprotected && atk == "sat" && res.Converged && !keyOK:
			return out, fmt.Errorf("%s: converged SAT attack through the unprotected chip returned a wrong key", d.name)
		case prot == orapBasic && d.scheme == "weighted" && keyOK:
			return out, fmt.Errorf("%s: %s recovered a working key through the OraP chip", d.name, atk)
		}
		return out, nil
	}
}

func runAttack(atk string, d *design, o oracle.Oracle) (*attack.Result, error) {
	b := attack.Budgets{MaxIterations: 2000}
	switch atk {
	case "sat":
		return attack.SAT(d.locked, o, b)
	case "doubledip":
		return attack.DoubleDIP(d.locked, o, b)
	case "appsat":
		return attack.AppSAT(d.locked, o, attack.AppSATOptions{Budgets: b, Rand: rng.NewNamed(d.seed, "perfbench/appsat")})
	case "hill":
		return attack.HillClimb(d.locked, o, attack.HillOptions{Patterns: 512, Restarts: 12, Rand: rng.NewNamed(d.seed, "perfbench/hill")})
	}
	return nil, fmt.Errorf("unknown attack %q", atk)
}

// timedOracle is the traced run's wrapper around an attack's session.
// It forwards the two interfaces the attacks type-assert — the word
// channel (oracle.WordOracle) and Stats — and records every call as an
// oracle.wait span. Without QueryWords the attacks would silently fall
// back to scalar queries.
type timedOracle struct {
	*oracle.Session
	tr *tracer
}

var _ oracle.WordOracle = (*timedOracle)(nil)

func (o *timedOracle) Query(in []bool) (out []bool, err error) {
	err = o.tr.span("oracle.wait", func() (err error) {
		out, err = o.Session.Query(in)
		return err
	})
	return out, err
}

func (o *timedOracle) QueryWords(in []uint64, n int) (out []uint64, err error) {
	err = o.tr.span("oracle.wait", func() (err error) {
		out, err = o.Session.QueryWords(in, n)
		return err
	})
	return out, err
}

func compile(x *env, c *netlist.Circuit) (prog *ir.Program, err error) {
	err = x.tr.span("ir.compile", func() (err error) {
		prog, err = ir.Compile(c)
		return err
	})
	return prog, err
}

// structuralAuditOp is one profile of `orapbench -audit`: the netlist
// audit of the Table I lock and the oracle-path audit of its OraP-basic
// configuration.
func structuralAuditOp(x *env, d *design) (string, error) {
	prog, err := compile(x, d.locked)
	if err != nil {
		return "", err
	}
	var rep, orep *audit.Report
	x.tr.span("audit.structural", func() error {
		rep = audit.AnalyzeProgram(prog, d.locked, audit.Options{})
		return nil
	})
	if err := x.tr.span("audit.oracle", func() (err error) {
		orep, err = audit.Oracle(d.cfg, nil)
		return err
	}); err != nil {
		return "", err
	}
	x.ctr["audit.keybits"] += float64(prog.NumKeys())
	x.ctr["audit.findings"] += float64(len(rep.Findings))
	ne, nw, ni := rep.Counts()
	oe, ow, _ := orep.Counts()
	out := fmt.Sprintf("%s structural %dE/%dW/%dI oracle %dE/%dW entropy %d/%d",
		d.name, ne, nw, ni, oe, ow, orep.EffectiveEntropy, orep.NominalEntropy)
	switch {
	case ne > 0:
		return out, fmt.Errorf("%s: weighted design audits with errors:\n%s", d.name, rep)
	case oe > 0 || orep.EffectiveEntropy != orep.NominalEntropy || orep.NominalEntropy != len(d.key):
		return out, fmt.Errorf("%s: OraP oracle-path audit not error-free at full entropy:\n%s", d.name, orep)
	}
	return out, nil
}

// exactBDDBudget is the exact audit's per-key-bit node budget: a few
// times the largest per-bit manager the exact designs usually build, so
// the rare instance whose key cones blow up falls back to the structural
// verdict (counted in bdd.fallback_ratio) instead of dominating a run.
const exactBDDBudget = 1 << 16

// exactAuditOp is one design of `orapaudit -exact`/`-sweep`: the audit
// with the ROBDD backend and the symbolic proof that the stored key
// unlocks the original function.
func exactAuditOp(x *env, d *design) (string, error) {
	prog, err := compile(x, d.locked)
	if err != nil {
		return "", err
	}
	var rep, eq *audit.Report
	x.tr.span("audit.exact", func() error {
		rep = audit.AnalyzeProgram(prog, d.locked, audit.Options{Exact: true, BDDBudget: exactBDDBudget})
		return nil
	})
	if err := x.tr.span("audit.keyeq", func() (err error) {
		eq, err = audit.KeyEquivalence(d.locked, d.orig, d.key, audit.ExactOptions{})
		return err
	}); err != nil {
		return "", fmt.Errorf("%s: key-equivalence proof: %w", d.name, err)
	}
	ex := rep.Exact
	x.ctr["bdd.keybits"] += float64(len(ex.Bits))
	x.ctr["bdd.nodes"] += float64(ex.Stats.Nodes)
	x.ctr["bdd.peak_nodes"] = math.Max(x.ctr["bdd.peak_nodes"], float64(ex.Stats.PeakNodes))
	x.ctr["bdd.ite_lookups"] += float64(ex.Stats.CacheLookups)
	x.ctr["bdd.ite_hits"] += float64(ex.Stats.CacheHits)
	x.ctr["bdd.fallbacks"] += float64(ex.Stats.Fallbacks)
	sens, cone := 0, 0
	for _, b := range ex.Bits {
		sens += b.SensPOs
		cone += b.ConePOs
		if b.SensPOs > b.ConePOs {
			return "", fmt.Errorf("%s: key bit %d flips %d outputs outside its %d-output cone", d.name, b.Bit, b.SensPOs, b.ConePOs)
		}
	}
	ne, nw, ni := rep.Counts()
	out := fmt.Sprintf("%s exact %dE/%dW/%dI nodes=%d peak=%d fallbacks=%d sens=%d cone=%d",
		d.name, ne, nw, ni, ex.Stats.Nodes, ex.Stats.PeakNodes, ex.Stats.Fallbacks, sens, cone)
	if eq.HasErrors() {
		return out, fmt.Errorf("%s: stored key not proven equivalent:\n%s", d.name, eq)
	}
	return out, nil
}

// tableIOp is one Table I row: protect with OraP-basic, then the Hamming
// distance over the metrics package's default 2^18 random patterns and
// 8 wrong keys, and the resynthesis overhead.
func tableIOp(x *env, d *design) (string, error) {
	var extra int
	if err := x.tr.span("orap.protect", func() error {
		cfg, err := protect(d, scan.OraPBasic)
		extra = orap.RegisterOverhead(cfg.LFSR).Gates()
		return err
	}); err != nil {
		return "", err
	}
	var hd metrics.HDResult
	if err := x.tr.span("metrics.hd", func() (err error) {
		hd, err = metrics.HammingDistance(d.locked, d.key, metrics.HDOptions{
			Workers: 1, Rand: rng.NewNamed(d.seed, "perfbench/hd"),
		})
		return err
	}); err != nil {
		return "", err
	}
	var ov synth.Overhead
	if err := x.tr.span("synth.compare", func() (err error) {
		ov, err = synth.Compare(d.orig, d.locked, extra)
		return err
	}); err != nil {
		return "", err
	}
	x.ctr["metrics.patterns"] += float64(hd.Patterns)
	x.ctr["aig.ands"] += float64(ov.Original.Area + ov.Protected.Area)
	return fmt.Sprintf("%s tableI hd=%.6f area=%.4f delay=%.4f",
		d.name, hd.HDPercent, ov.AreaPercent(), ov.DelayPercent()), nil
}

// tableIIOp is one Table II entry: random-pattern fault simulation, then
// SAT-based ATPG on the faults it left, on the original or the locked
// netlist.
func tableIIOp(protected bool) opFunc {
	return func(x *env, d *design) (string, error) {
		c, side := d.orig, "orig"
		if protected {
			c, side = d.locked, "prot"
		}
		prog, err := compile(x, c)
		if err != nil {
			return "", err
		}
		var fs *faultsim.Simulator
		var rnd faultsim.Result
		if err := x.tr.span("faultsim.random", func() (err error) {
			if fs, err = faultsim.ForProgram(prog); err != nil {
				return err
			}
			fs.Workers = 1
			rnd = fs.RunRandom(faultsim.CollapseFaults(c), 32, rng.NewNamed(d.seed, "perfbench/tableII/"+side))
			return nil
		}); err != nil {
			return "", err
		}
		var sum atpg.Summary
		if err := x.tr.span("atpg", func() (err error) {
			sum, err = atpg.Run(c, fs, rnd, atpg.Options{})
			return err
		}); err != nil {
			return "", err
		}
		x.ctr["faultsim.faults"] += float64(rnd.Total)
		x.ctr["faultsim.detected"] += float64(rnd.Detected)
		x.ctr["atpg.targeted"] += float64(sum.Redundant + sum.Aborted + len(sum.Patterns))
		x.ctr["atpg.aborted"] += float64(sum.Aborted)
		x.addSAT(sum.Solver)
		out := fmt.Sprintf("%s tableII/%s faults=%d random=%d detected=%d redundant=%d aborted=%d",
			d.name, side, sum.Total, rnd.Detected, sum.Detected, sum.Redundant, sum.Aborted)
		if sum.Detected+sum.Redundant+sum.Aborted != sum.Total {
			return out, fmt.Errorf("%s: %s: detected+redundant+aborted != %d faults", d.name, side, sum.Total)
		}
		return out, nil
	}
}
