package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGodocLintsMethodsOfUnexportedTypes: an exported method is linted
// whatever its receiver, so a file whose API is methods of an
// unexported type is checked, and a documented one passes.
func TestGodocLintsMethodsOfUnexportedTypes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "layers.go")
	src := `package p

type layers struct{}

func (l *layers) Read() {}

// Drain is documented.
func (l layers) Drain() {}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	problems := checkGodoc([]string{filepath.ToSlash(path)})
	if len(problems) != 1 || !strings.Contains(problems[0], "function Read has no doc comment") {
		t.Fatalf("problems = %q, want only Read's", problems)
	}
}
