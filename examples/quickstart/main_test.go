package main

import (
	"flag"
	"path/filepath"
	"testing"

	"infilter/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden from the current code")

// TestStdoutGolden runs the example and requires it to print exactly what
// testdata/stdout.golden holds.
func TestStdoutGolden(t *testing.T) {
	testutil.Golden(t, filepath.Join("testdata", "stdout.golden"), testutil.Stdout(t, run), *update)
}
