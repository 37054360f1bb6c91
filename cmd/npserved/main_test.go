package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"nopower/internal/experiments"
	"nopower/internal/serve"
)

// TestServeSmoke is the end-to-end daemon gate, part of `go test ./...`:
// build the real binary, boot it on a free port, submit a job over HTTP, and
// check the wire result is bitwise identical to an in-process run — the
// cross-process face of the determinism contract — then shut it down with
// SIGTERM and expect a clean exit.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "npserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-dir", filepath.Join(dir, "jobs"))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cmd.Process.Kill() }()

	// The daemon announces its resolved address on the first stdout line.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no banner from daemon: %v", sc.Err())
	}
	line := sc.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected banner %q", line)
	}
	base := "http://" + strings.TrimSpace(line[i+len(marker):])
	go func() { // drain the rest so the child never blocks on stdout
		for sc.Scan() {
		}
	}()

	spec := serve.JobSpec{Mix: "scale4", Ticks: 200, Seed: 12345}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var v serve.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s/wait?timeout=2m", base, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	var final serve.View
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final.Status != serve.StatusDone {
		t.Fatalf("job %s: %s (%s)", v.ID, final.Status, final.Error)
	}
	if final.Output == nil {
		t.Fatal("done job has no output")
	}

	cs, err := spec.CoreSpec()
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.Run(context.Background(), spec.Scenario(), cs)
	if err != nil {
		t.Fatal(err)
	}
	if final.Output.Result != want {
		t.Fatalf("daemon result diverges from in-process run:\n got %+v\nwant %+v", final.Output.Result, want)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}
