package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLatestBaselinePicksHighestNumber(t *testing.T) {
	dir := t.TempDir()
	if got := latestBaseline(dir); got != "" {
		t.Fatalf("empty dir: got %q, want \"\"", got)
	}
	for _, name := range []string{"BENCH_7.json", "BENCH_15.json", "BENCH_9.json", "BENCH_x.json", "BENCH_20.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := latestBaseline(dir), filepath.Join(dir, "BENCH_15.json"); got != want {
		t.Fatalf("got %q, want %q (numeric, not lexical, order)", got, want)
	}
}
