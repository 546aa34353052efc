package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCase drives run() as a caller would, capturing both streams.
func runCase(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestCleanModuleExitsZero(t *testing.T) {
	code, out, errOut := runCase(t, "-C", filepath.Join("testdata", "clean"))
	if code != exitClean {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitClean, errOut)
	}
	if !strings.Contains(out, "orapvet: cleanfixture clean") {
		t.Errorf("stdout = %q, want clean banner", out)
	}
}

func TestFixtureModuleExitsOne(t *testing.T) {
	code, out, _ := runCase(t, "-C", filepath.Join("testdata", "src"))
	if code != exitErrors {
		t.Fatalf("exit = %d, want %d", code, exitErrors)
	}
	if !strings.Contains(out, "[nosecret]") || !strings.Contains(out, "[irmutate]") {
		t.Errorf("stdout missing expected rule tags:\n%s", out)
	}
	// Witness chains render indented under their finding.
	if !strings.Contains(out, "\tsource ") || !strings.Contains(out, "\tsink   ") {
		t.Errorf("stdout missing rendered witness chain:\n%s", out)
	}
}

func TestJSONReport(t *testing.T) {
	code, out, errOut := runCase(t, "-C", filepath.Join("testdata", "src"), "-json")
	if code != exitErrors {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitErrors, errOut)
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, out)
	}
	if rep.Module != "vetfixture" {
		t.Errorf("module = %q, want vetfixture", rep.Module)
	}
	if rep.Errors == 0 {
		t.Error("errors = 0, want > 0")
	}
	if rep.Errors+rep.Warnings != len(rep.Findings) {
		t.Errorf("errors(%d)+warnings(%d) != findings(%d)", rep.Errors, rep.Warnings, len(rep.Findings))
	}
	var chained *jsonFinding
	for i := range rep.Findings {
		f := &rep.Findings[i]
		if !strings.HasPrefix(f.File, "internal/") {
			t.Errorf("finding path %q is not module-relative", f.File)
		}
		if len(f.Chain) > 0 && chained == nil {
			chained = f
		}
	}
	if chained == nil {
		t.Fatal("no finding carries a witness chain")
	}
	last := chained.Chain[len(chained.Chain)-1]
	if last.Kind != "sink" {
		t.Errorf("chain ends with %q hop, want sink", last.Kind)
	}
}

func TestWarningsOnlyExitsThree(t *testing.T) {
	code, out, _ := runCase(t, "-C", filepath.Join("testdata", "warnonly"))
	if code != exitWarnings {
		t.Fatalf("exit = %d, want %d\n%s", code, exitWarnings, out)
	}
	if !strings.Contains(out, "[shortrace]") {
		t.Errorf("stdout = %q, want a shortrace warning", out)
	}
}

func TestNoModuleExitsTwo(t *testing.T) {
	code, _, errOut := runCase(t, "-C", t.TempDir())
	if code != exitInternal {
		t.Fatalf("exit = %d, want %d", code, exitInternal)
	}
	if !strings.Contains(errOut, "orapvet:") {
		t.Errorf("stderr = %q, want an orapvet error", errOut)
	}
}

func TestReportFileArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vet.json")
	code, out, _ := runCase(t, "-C", filepath.Join("testdata", "warnonly"), "-report", path)
	if code != exitWarnings {
		t.Fatalf("exit = %d, want %d", code, exitWarnings)
	}
	// -report does not silence the text output.
	if !strings.Contains(out, "[shortrace]") {
		t.Errorf("stdout = %q, want text findings alongside the report file", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report file is not valid JSON: %v", err)
	}
	if rep.Module != "warnfixture" || rep.Warnings != 1 || rep.Errors != 0 {
		t.Errorf("report = module %q errors %d warnings %d, want warnfixture 0 1",
			rep.Module, rep.Errors, rep.Warnings)
	}
}
