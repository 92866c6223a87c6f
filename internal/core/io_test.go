package core

import (
	"bytes"
	"strings"
	"testing"
)

// TestScheduleCSVHeaderNamesPolicy pins the CSV header line for every
// ParsePolicy spec: it names the resolved policy, aliases included; a
// nil Policy is BasicPolicy.
func TestScheduleCSVHeaderNamesPolicy(t *testing.T) {
	tr := paperTrace(t, 27)
	for _, tc := range []struct{ spec, name string }{
		{"", "basic"},
		{"basic", "basic"},
		{"moving", "moving-average"},
		{"moving-average", "moving-average"},
		{"min-var", "min-var"},
		{"minimum-variability", "min-var"},
		{"capped:2.5e6", "capped:2.5e+06(basic)"},
	} {
		cfg := Config{K: 1, H: 9, D: 0.2}
		if tc.spec != "" {
			p, err := ParsePolicy(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Policy = p
		}
		s, err := Smooth(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		header, _, _ := strings.Cut(buf.String(), "\n")
		if want := "# name=Driving1 K=1 H=9 D=0.200000000 policy=" + tc.name; header != want {
			t.Errorf("spec %q: header %q, want %q", tc.spec, header, want)
		}
	}
}
