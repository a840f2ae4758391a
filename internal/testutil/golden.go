package testutil

import (
	"bytes"
	"os"
	"testing"
)

// Golden fails t unless got equals the golden file at path. With update
// set (the calling package's -update flag) it rewrites the file instead.
func Golden(t testing.TB, path string, got []byte, update bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want, err := os.ReadFile(path); err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	} else if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (regenerate with -update only when it is meant to move):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// Stdout runs fn with os.Stdout redirected into a temporary file and
// returns what it printed, failing t if fn returns an error.
func Stdout(t testing.TB, fn func() error) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}
