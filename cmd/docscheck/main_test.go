package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPRNamedHeadingsFail(t *testing.T) {
	dir := t.TempDir()
	doc := strings.Join([]string{
		"# Overview",
		"## Failure handling (PR 3)",
		"Text naming PR 3 is fine.",
		"```sh",
		"# PR 4 inside a code block is a shell comment",
		"```",
		"### Durability path, PR #4",
		"## PRs 5 and 6",
		"## Prepare phase",
	}, "\n")
	if err := os.WriteFile(filepath.Join(dir, "DOC.md"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "doc.go"), []byte("// Package p is documented.\npackage p\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := checkDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"DOC.md:2:", "DOC.md:7:", "DOC.md:8:"}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d: %q", len(got), len(want), got)
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("finding %d = %q, want it at %s", i, got[i], w)
		}
	}
}
