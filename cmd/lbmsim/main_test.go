package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun is lbmsim's smoke test: every scene on both backends at
// 16x12x8 for five steps, one MRT run and one image, each held to its
// mass line (the GPU backend is bit for bit the CPU one, so both print
// the same); and every flag the simulation cannot take, each refused
// with exit code 2 and a message instead of a panic or a silent default.
// The wall-clock line is never read.
func TestRun(t *testing.T) {
	img := filepath.Join(t.TempDir(), "slice.ppm")
	small := []string{"-nx", "16", "-ny", "12", "-nz", "8", "-steps", "5"}
	cases := []struct {
		args []string
		code int
		want string // a line of stdout, or the start of stderr
	}{
		{[]string{"-scene", "channel", "-backend", "cpu"}, 0, "mass: 1524.0 -> 1538.4 (drift 9.43e-03)"},
		{[]string{"-scene", "channel", "-backend", "gpu"}, 0, "mass: 1524.0 -> 1538.4 (drift 9.43e-03)"},
		{[]string{"-scene", "cavity", "-backend", "cpu"}, 0, "mass: 1536.0 -> 1536.0 (drift 2.48e-07)"},
		{[]string{"-scene", "cavity", "-backend", "gpu"}, 0, "mass: 1536.0 -> 1536.0 (drift 2.48e-07)"},
		{[]string{"-scene", "periodic", "-backend", "cpu"}, 0, "mass: 1536.0 -> 1536.0 (drift 2.38e-07)"},
		{[]string{"-scene", "periodic", "-backend", "gpu"}, 0, "mass: 1536.0 -> 1536.0 (drift 2.38e-07)"},
		{[]string{"-mrt"}, 0, "mass: 1524.0 -> 1538.3 (drift 9.36e-03)"},
		{[]string{"-image", img}, 0, "wrote " + img},

		{[]string{"-tau", "0.4"}, 2, "lbmsim: -tau 0.4: BGK relaxation time must exceed 0.5"},
		{[]string{"-nodes", "0"}, 2, "lbmsim: -nodes 0: cluster size must be positive"},
		{[]string{"-backend", "tpu"}, 2, `lbmsim: -backend "tpu": want cpu or gpu`},
		{[]string{"-steps", "-1"}, 2, "lbmsim: -steps -1: step count must be positive"},
		{[]string{"-nx", "0"}, 2, "lbmsim: -nx 0 -ny 12 -nz 8: lattice extents must be positive"},
		{[]string{"-scene", "ocean"}, 2, `lbmsim: -scene "ocean": want channel, cavity or periodic`},
		{[]string{"-backend", "gpu", "-mrt"}, 2, "lbmsim: -mrt is unsupported on the gpu backend"},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag"},
	}
	for _, tc := range cases {
		args := append(append([]string{}, small...), tc.args...)
		var out, errw strings.Builder
		code := run(args, &out, &errw)
		if code != tc.code {
			t.Errorf("%v: exit code %d, want %d; stderr: %s", tc.args, code, tc.code, errw.String())
			continue
		}
		if tc.code == 0 {
			if !strings.Contains("\n"+out.String(), "\n"+tc.want+"\n") {
				t.Errorf("%v: no line %q in stdout:\n%s", tc.args, tc.want, out.String())
			}
		} else if !strings.HasPrefix(errw.String(), tc.want) || out.Len() != 0 {
			t.Errorf("%v: stderr %q, want it to start %q and stdout empty", tc.args, errw.String(), tc.want)
		}
	}
	if fi, err := os.Stat(img); err != nil || fi.Size() == 0 {
		t.Errorf("-image wrote no picture: %v", err)
	}
}
