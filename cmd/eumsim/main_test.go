package main

import (
	"testing"

	"eum/internal/experiments"
)

func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		name string
		want experiments.Scale
		ok   bool
	}{
		{"small", experiments.Small, true},
		{"full", experiments.Full, true},
		{"huge", experiments.Huge, true},
		{"FULL", experiments.Full, true},
		{"Small", experiments.Small, true},
		{"fulll", 0, false},
		{"", 0, false},
		{"medium", 0, false},
	} {
		got, err := parseScale(c.name)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("parseScale(%q) = %v, %v; want %v, ok=%v", c.name, got, err, c.want, c.ok)
		}
	}
}
