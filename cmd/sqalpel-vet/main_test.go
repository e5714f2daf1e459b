package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes guards the gate against passing code it did not check:
// a finding exits 2, a clean package 0, and a pattern that names no
// package or an argument that looks like a flag exits 1.
func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		code int
		out  string
	}{
		{"finding", []string{"./testdata/internal/plan"}, 2, "[mapiterdet]"},
		{"clean", []string{"."}, 0, ""},
		{"missing", []string{"./nosuch"}, 1, "./nosuch"},
		{"flag", []string{"-tests", "."}, 1, "-tests"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if code := run(c.args, &out); code != c.code {
				t.Errorf("sqalpel-vet %s exited %d, want %d; output:\n%s", strings.Join(c.args, " "), code, c.code, &out)
			}
			if !strings.Contains(out.String(), c.out) {
				t.Errorf("sqalpel-vet %s printed %q, want it to contain %q", strings.Join(c.args, " "), &out, c.out)
			}
			if c.code == 0 && out.Len() > 0 {
				t.Errorf("sqalpel-vet %s exited 0 but printed %q", strings.Join(c.args, " "), &out)
			}
		})
	}
}
