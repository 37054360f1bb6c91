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

// docs are the files that tell a reader what to type.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var goRunDir = regexp.MustCompile("go run \\./([^\\s`'\"]+)")

// Every `go run ./<dir>` the docs tell a reader to type names a directory
// that holds a main package.
func TestDocsGoRunTargetsExist(t *testing.T) {
	for _, doc := range docs {
		for _, m := range goRunDir.FindAllStringSubmatch(readDoc(t, doc), -1) {
			dir := strings.TrimSuffix(m[1], "/")
			pkg, err := build.ImportDir(filepath.Join(repoRoot, dir), 0)
			if err != nil || pkg.Name != "main" {
				t.Errorf("%s: `go run ./%s` names no main package", doc, dir)
			}
		}
	}
}

var (
	// makeRule matches a Makefile rule line: targets, then a colon that
	// does not start ":=".
	makeRule = regexp.MustCompile(`(?m)^([\w.-]+(?:[ \t]+[\w.-]+)*)[ \t]*:(?:[^=]|$)`)
	// makeInline matches inline code that starts with make; makeLine a
	// code-block line that does.
	makeInline = regexp.MustCompile("`make\\s+([\\w.-]+)")
	makeLine   = regexp.MustCompile(`^\s*make\s+([\w.-]+)`)
)

// Every `make X` the docs tell a reader to type, in inline code or on a
// code-block line, names a Makefile target. Prose ("make shard count")
// is neither.
func TestDocsMakeTargetsExist(t *testing.T) {
	targets := map[string]bool{}
	for _, m := range makeRule.FindAllStringSubmatch(readDoc(t, "Makefile"), -1) {
		for _, name := range strings.Fields(m[1]) {
			targets[name] = true
		}
	}
	for _, doc := range docs {
		text := readDoc(t, doc)
		var named []string
		for _, m := range makeInline.FindAllStringSubmatch(text, -1) {
			named = append(named, m[1])
		}
		inBlock := false
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inBlock = !inBlock
			} else if m := makeLine.FindStringSubmatch(line); inBlock && m != nil {
				named = append(named, m[1])
			}
		}
		for _, name := range named {
			if !targets[name] {
				t.Errorf("%s: `make %s` names no Makefile target", doc, name)
			}
		}
	}
}
