package main

import (
	"go/build"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nopower/internal/experiments"
)

// repoRoot is the module root, two levels above this package.
const repoRoot = "../.."

func readDoc(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repoRoot, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// Every registered experiment has a row in DESIGN.md §4, the experiment
// index, naming the command that regenerates it.
func TestDesignIndexListsEveryExperiment(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	start := strings.Index(design, "\n## 4.")
	if start < 0 {
		t.Fatal("DESIGN.md has no §4")
	}
	index := design[start+1:]
	if end := strings.Index(index, "\n## "); end >= 0 {
		index = index[:end]
	}
	for _, name := range experiments.Names() {
		if !strings.Contains(index, "`npexp "+name+"`") {
			t.Errorf("DESIGN.md §4 has no row regenerating `npexp %s`", name)
		}
	}
}

var goRunDir = regexp.MustCompile("go run \\./([^\\s`'\"]+)")

// Every `go run ./<dir>` the docs tell a reader to type names a directory
// that holds a main package.
func TestDocsGoRunTargetsExist(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		for _, m := range goRunDir.FindAllStringSubmatch(readDoc(t, doc), -1) {
			dir := strings.TrimSuffix(m[1], "/")
			pkg, err := build.ImportDir(filepath.Join(repoRoot, dir), 0)
			if err != nil || pkg.Name != "main" {
				t.Errorf("%s: `go run ./%s` names no main package", doc, dir)
			}
		}
	}
}
