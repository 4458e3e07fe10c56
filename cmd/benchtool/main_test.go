package main

import (
	"strings"
	"testing"

	"mvedsua/internal/bench"
)

// An unknown -experiment used to run nothing and exit 0; resolve must
// reject it and list the valid names.
func TestResolveExperiment(t *testing.T) {
	all, err := resolve("all")
	if err != nil || len(all) != len(bench.Catalogue) {
		t.Fatalf(`resolve("all") = %d rows, %v; want the whole catalogue`, len(all), err)
	}
	for _, e := range bench.Catalogue {
		got, err := resolve(e.Name)
		if err != nil || len(got) != 1 || got[0].Name != e.Name {
			t.Errorf("resolve(%q) = %v, %v", e.Name, got, err)
		}
	}
	got, err := resolve("tabel2")
	if err == nil || len(got) != 0 {
		t.Fatalf(`resolve("tabel2") = %v, %v; want an error and nothing to run`, got, err)
	}
	for _, want := range []string{`unknown experiment "tabel2"`, "table1|", "|sharddet|all"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}
