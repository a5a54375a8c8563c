package experiment

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("registered %d experiments, want 15", len(all))
	}
	// Natural order E1..E15.
	for i, e := range all {
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Errorf("All()[%d].ID = %s, want %s", i, e.ID, want)
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("E2"); err != nil {
		t.Fatalf("ByID(E2): %v", err)
	}
	_, err := ByID("E99")
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("ByID(E99) error = %v", err)
	}
}

func TestTableRender(t *testing.T) {
	table := &Table{ID: "T", Title: "demo", Columns: []string{"a", "long-column"}}
	table.AddRow("1", "2")
	table.AddRow("333333", "4")
	table.AddNote("hello %d", 42)
	var buf bytes.Buffer
	if err := table.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== T: demo ==", "long-column", "333333", "note: hello 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Fatal("scale strings")
	}
	if Scale(99).String() == "" {
		t.Fatal("unknown scale should still render")
	}
}

// claims pins, per experiment, the ordering the experiment exists to
// show, read from its Quick-scale table by column name.
var claims = map[string]func(t *testing.T, table *Table){
	// Smoothing (alone or in the pipeline) defeats the POI attack that
	// raw publication cannot resist, on both workloads.
	"E2": func(t *testing.T, table *Table) {
		for _, w := range []string{"commuter", "taxi"} {
			raw := lookup(t, table, "per-user F1", "workload", w, "mechanism", "raw")
			for _, m := range []string{"pipeline", "promesse"} {
				if f1 := lookup(t, table, "per-user F1", "workload", w, "mechanism", m); f1 >= raw {
					t.Errorf("E2 %s: %s per-user F1 %.3f not below raw's %.3f", w, m, f1, raw)
				}
			}
		}
	},
	// Geo-I's noise must grow large before POI recall falls: recall
	// never rises as epsilon shrinks.
	"E3": func(t *testing.T, table *Table) {
		eps, recall := column(t, table, "epsilon (1/m)"), column(t, table, "per-user recall")
		for i := 1; i < len(table.Rows); i++ {
			prev, cur := table.Rows[i-1], table.Rows[i]
			if parse(t, cur[eps]) >= parse(t, prev[eps]) {
				t.Fatalf("E3 rows not in decreasing epsilon: %s then %s", prev[eps], cur[eps])
			}
			if parse(t, cur[recall]) > parse(t, prev[recall]) {
				t.Errorf("E3 recall rises from %s to %s as epsilon falls to %s", prev[recall], cur[recall], cur[eps])
			}
		}
	},
	// Swapping is what breaks label tracking, and smoothing is what
	// hides POIs.
	"E12": func(t *testing.T, table *Table) {
		full := func(col string) float64 { return lookup(t, table, col, "variant", "full pipeline") }
		if v := lookup(t, table, "label e2e", "variant", "no swapping"); v <= full("label e2e") {
			t.Errorf("E12: label e2e without swapping %.3f not above the full pipeline's %.3f", v, full("label e2e"))
		}
		if v := lookup(t, table, "poi F1 (global)", "variant", "no smoothing"); v <= full("poi F1 (global)") {
			t.Errorf("E12: POI F1 without smoothing %.3f not above the full pipeline's %.3f", v, full("poi F1 (global)"))
		}
	},
	// The pipeline re-identifies fewer users than raw publication.
	"E14": func(t *testing.T, table *Table) {
		raw := lookup(t, table, "rate", "publication", "raw")
		if p := lookup(t, table, "rate", "publication", "pipeline"); p >= raw {
			t.Errorf("E14: pipeline re-identification rate %.3f not below raw's %.3f", p, raw)
		}
	},
}

// column returns the index of the named column.
func column(t *testing.T, table *Table, name string) int {
	t.Helper()
	for i, c := range table.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("%s: no column %q in %v", table.ID, name, table.Columns)
	return -1
}

// lookup returns the number in column col of the first row whose cells
// match the (column, value) pairs in where.
func lookup(t *testing.T, table *Table, col string, where ...string) float64 {
	t.Helper()
	c := column(t, table, col)
rows:
	for _, row := range table.Rows {
		for i := 0; i+1 < len(where); i += 2 {
			if row[column(t, table, where[i])] != where[i+1] {
				continue rows
			}
		}
		return parse(t, row[c])
	}
	t.Fatalf("%s: no row with %v", table.ID, where)
	return 0
}

func parse(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q is not a number", cell)
	}
	return v
}

// TestAllExperimentsRunQuick executes every experiment at Quick scale —
// the repository's top-level integration test — and checks the
// orderings in claims.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take a few seconds")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			table, err := e.Run(Quick)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			if len(table.Columns) == 0 {
				t.Fatalf("%s has no columns", e.ID)
			}
			for ri, row := range table.Rows {
				if len(row) != len(table.Columns) {
					t.Errorf("%s row %d has %d cells, want %d", e.ID, ri, len(row), len(table.Columns))
				}
			}
			var buf bytes.Buffer
			if err := table.Render(&buf); err != nil {
				t.Fatalf("%s render: %v", e.ID, err)
			}
			t.Logf("\n%s", buf.String())
			if claim, ok := claims[e.ID]; ok {
				claim(t, table)
			}
		})
	}
}

func TestNaturalLess(t *testing.T) {
	if !naturalLess("E2", "E10") {
		t.Error("E2 should sort before E10")
	}
	if naturalLess("E10", "E2") {
		t.Error("E10 should not sort before E2")
	}
}
