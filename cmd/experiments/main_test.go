package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagsOfMode: every flag the chosen mode does not read is refused by
// name before anything runs, and the flags each mode reads are accepted.
// Cases that would simulate the suite if accepted set 1-instruction
// windows, so a broken check fails fast.
func TestFlagsOfMode(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "fig8.csv")
	prof := filepath.Join(dir, "cpu.prof")
	for _, tc := range []struct {
		args []string
		flag string // the flag the error names; "" for a run that succeeds
		out  string // with flag "": a line the run prints
	}{
		{[]string{"-id", "table1", "-sample-units", "16"}, "-sample-units", ""},
		{[]string{"-id", "table1", "-sample-ci", "0.02"}, "-sample-ci", ""},
		{[]string{"-all", "-warmup", "1", "-insts", "1", "-sample-seed", "3"}, "-sample-seed", ""},
		{[]string{"-all", "-warmup", "1", "-insts", "1", "-id", "fig6"}, "-id", ""},
		{[]string{"-csv", csv, "-warmup", "1", "-insts", "1", "-id", "fig6"}, "-id", ""},
		{[]string{"-csv", csv, "-warmup", "1", "-insts", "1", "-all"}, "-all", ""},
		{[]string{"-csv", csv, "-warmup", "1", "-insts", "1", "-list"}, "-list", ""},
		{[]string{"-list", "-id", "fig6"}, "-id", ""},
		{[]string{"-list", "-all"}, "-all", ""},
		{[]string{"-list", "-cpuprofile", prof}, "-cpuprofile", ""},
		{[]string{"-warmup", "5000"}, "-warmup", ""},

		{nil, "", "  fig6 "},
		{[]string{"-list"}, "", "  fig6 "},
		{[]string{"-id", "table1", "-warmup", "1", "-insts", "1", "-cpuprofile", prof}, "", "==== table1 — "},
		{[]string{"-csv", csv, "-warmup", "1000", "-insts", "20000", "-sample-units", "2", "-sample-seed", "1"}, "", "wrote " + csv},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%q: %v", tc.args, err)
		case tc.flag == "" && !strings.Contains(out.String(), tc.out):
			t.Errorf("%q printed no %q:\n%s", tc.args, tc.out, out.String())
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("%q: error %v, want one naming %s", tc.args, err, tc.flag)
		case tc.flag != "" && out.Len() > 0:
			t.Errorf("%q was refused but printed:\n%s", tc.args, out.String())
		}
	}
}

// TestFailedRunKeepsProfile: a profiled run that fails still writes its
// CPU profile.
func TestFailedRunKeepsProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	if err := run([]string{"-id", "nosuch", "-cpuprofile", prof}, &bytes.Buffer{}); err == nil {
		t.Fatal("-id nosuch succeeded")
	}
	fi, err := os.Stat(prof)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Error("the failed run left an empty CPU profile")
	}
}
