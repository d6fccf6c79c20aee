package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitStatus pins the exit-status contract: 0 on success, 1 on
// runtime failures (bad archive, query errors), 2 on usage errors —
// which must name what was wrong, including the offending flag.
func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	writeTestArchive(t, dir)
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string // substring the diagnostics must contain
	}{
		{"ok info", []string{"info", "-dir", dir}, 0, ""},
		{"ok replay", []string{"replay", "-dir", dir, "-ecids", "1"}, 0, ""},
		{"ok query", []string{"query", "-dir", dir, "-q", "select count()"}, 0, ""},
		{"no args", []string{}, 2, "usage"},
		{"unknown subcommand", []string{"frobnicate"}, 2, `unknown subcommand "frobnicate"`},
		{"unknown flag", []string{"replay", "-dir", dir, "-bogus"}, 2, "-bogus"},
		{"bad flag value", []string{"replay", "-dir", dir, "-since", "soon"}, 2, "-since"},
		{"bad ecid list", []string{"replay", "-dir", dir, "-ecids", "abc"}, 2, "-ecids"},
		{"bad op name", []string{"replay", "-dir", dir, "-ops", "bogus"}, 2, "-ops"},
		{"negative since", []string{"replay", "-dir", dir, "-since", "-5"}, 2, "-since"},
		{"missing dir", []string{"replay"}, 2, "-dir is required"},
		{"missing query", []string{"query", "-dir", dir}, 2, "-q is required"},
		{"bad esql", []string{"query", "-dir", dir, "-q", "select bogus("}, 2, "esql"},
		{"missing archive", []string{"info", "-dir", dir + "/nope"}, 1, ""},
		{"alerts with a filter", []string{"replay", "-dir", dir, "-monitor", "alerts", "-alerts", "alert when count() > 0", "-since", "1us"}, 2, "-since"},
		{"alerts with window", []string{"replay", "-dir", dir, "-monitor", "alerts", "-alerts", "alert when count() > 0", "-window", "8"}, 2, "-window"},
		{"loadbalance with window", []string{"replay", "-dir", dir, "-window", "8"}, 2, "-window"},
		{"loadbalance with alerts", []string{"replay", "-dir", dir, "-alerts", "alert when count() > 0"}, 2, "-alerts"},
		{"stats with alerts", []string{"replay", "-dir", dir, "-monitor", "stats", "-alerts", "alert when count() > 0"}, 2, "-alerts"},
		{"ok stats with window", []string{"replay", "-dir", dir, "-monitor", "stats", "-window", "8"}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			got := 999
			out := capture(t, func() error {
				got = run(tc.args, &stderr)
				return nil
			})
			if got != tc.want {
				t.Fatalf("run(%q) = %d, want %d\nstderr: %s\nstdout: %s",
					tc.args, got, tc.want, stderr.String(), out)
			}
			if tc.stderr != "" && !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stderr %q does not mention %q", stderr.String(), tc.stderr)
			}
		})
	}
}
