package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestListCommand(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, name := range []string{"fig7", "fig8", "stability", "extensions"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("list missing %q", name)
		}
	}
}

func TestNoArgsUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "usage:") {
		t.Error("usage not printed")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"bogus"}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

func TestStabilityText(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-q", "stability"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Appendix A") {
		t.Errorf("missing table title in %q", out.String())
	}
	if errOut.Len() != 0 {
		t.Errorf("-q still printed progress: %q", errOut.String())
	}
}

func TestStabilityMarkdownAndJSON(t *testing.T) {
	var md, errOut bytes.Buffer
	if code := run([]string{"-q", "-markdown", "stability"}, &md, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(md.String(), "| Loop |") {
		t.Error("markdown table missing")
	}

	var js bytes.Buffer
	if code := run([]string{"-q", "-json", "stability"}, &js, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	var doc []struct {
		Experiment string `json:"experiment"`
		Tables     []struct {
			Title string
			Rows  [][]string
		} `json:"tables"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc) != 1 || doc[0].Experiment != "stability" || len(doc[0].Tables) == 0 {
		t.Errorf("JSON shape wrong: %+v", doc)
	}
}

// A small real experiment end to end through the CLI (reduced ticks).
func TestFailoverThroughCLI(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-q", "-ticks", "800", "failover"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Uncoordinated EC+SM") {
		t.Error("failover table missing rows")
	}
}

// TestSlogVerbosityLevels pins the structured-logging contract: default runs
// log progress as slog INFO lines, -v 1 adds runner-pool DEBUG detail, and
// -q (covered by TestStabilityText) silences both.
func TestSlogVerbosityLevels(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"stability"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), `level=INFO msg="experiment done" experiment=stability`) {
		t.Errorf("progress not logged via slog:\n%s", errOut.String())
	}
	if strings.Contains(errOut.String(), "level=DEBUG") {
		t.Errorf("debug detail leaked at default verbosity:\n%s", errOut.String())
	}

	errOut.Reset()
	out.Reset()
	if code := run([]string{"-v", "1", "stability"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), `level=DEBUG msg="runner pool"`) {
		t.Errorf("-v 1 missing runner-pool debug line:\n%s", errOut.String())
	}
}

// TestResumeDirSkipsSettledExperiments pins the resumable-batch contract: a
// second run with the same -resume-dir serves settled experiments from the
// slot store (logging "resumed from store") and produces identical output,
// while a changed key (different ticks) reruns.
func TestResumeDirSkipsSettledExperiments(t *testing.T) {
	dir := t.TempDir()
	var first, errOut bytes.Buffer
	if code := run([]string{"-resume-dir", dir, "stability"}, &first, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), `msg="experiment done"`) {
		t.Fatalf("first run did not execute the experiment:\n%s", errOut.String())
	}

	var second, errOut2 bytes.Buffer
	if code := run([]string{"-resume-dir", dir, "stability"}, &second, &errOut2); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut2.String())
	}
	if !strings.Contains(errOut2.String(), `msg="experiment resumed from store"`) {
		t.Errorf("second run did not resume from the store:\n%s", errOut2.String())
	}
	if strings.Contains(errOut2.String(), `msg="experiment done"`) {
		t.Errorf("second run re-executed a settled experiment:\n%s", errOut2.String())
	}
	if first.String() != second.String() {
		t.Error("resumed output differs from the original run")
	}

	// A different ticks value is a different slot key: must rerun.
	var third, errOut3 bytes.Buffer
	if code := run([]string{"-resume-dir", dir, "-ticks", "500", "failover"}, &third, &errOut3); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut3.String())
	}
	if !strings.Contains(errOut3.String(), `msg="experiment done"`) {
		t.Errorf("new key did not execute:\n%s", errOut3.String())
	}
}

// A failure later in a batch leaves every experiment finished before it in
// the store and on stdout: the sweep of the table experiments, and each
// other experiment, is stored as soon as it has its tables. A rerun prints
// the bytes of a run without the store.
func TestResumeDirKeepsWorkBeforeAFailure(t *testing.T) {
	dir := t.TempDir()
	var first, errOut bytes.Buffer
	if code := run([]string{"-ticks", "300", "-resume-dir", dir, "stability", "fig7", "bogus", "migration"}, &first, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), `unknown experiment \"bogus\"`) {
		t.Errorf("failure not logged:\n%s", errOut.String())
	}
	for _, title := range []string{"Appendix A", "Fig. 7"} {
		if !strings.Contains(first.String(), title) {
			t.Errorf("stdout lacks %q, finished before the failure", title)
		}
	}
	if strings.Contains(first.String(), "migration overhead") {
		t.Error("stdout holds the migration table, named after the failure")
	}

	var second, errOut2 bytes.Buffer
	if code := run([]string{"-ticks", "300", "-resume-dir", dir, "stability", "fig7", "migration"}, &second, &errOut2); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut2.String())
	}
	if n := strings.Count(errOut2.String(), `msg="experiment resumed from store"`); n != 3 {
		t.Errorf("rerun resumed %d experiments from the store, want 3 (migration ran in fig7's sweep):\n%s", n, errOut2.String())
	}
	if strings.Contains(errOut2.String(), `msg="experiment done"`) {
		t.Errorf("rerun re-executed a stored experiment:\n%s", errOut2.String())
	}
	if !strings.HasPrefix(second.String(), first.String()) {
		t.Error("rerun does not start with the tables the failed run printed")
	}

	var fresh bytes.Buffer
	if code := run([]string{"-q", "-ticks", "300", "stability", "fig7", "migration"}, &fresh, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if fresh.String() != second.String() {
		t.Error("the resumed batch prints other bytes than a run without the store")
	}
}
