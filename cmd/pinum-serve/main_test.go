package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/serve"
	"github.com/pinumdb/pinum/internal/workload"
)

func testWorkload(t *testing.T, seed int64) *workload.Workload {
	t.Helper()
	star, err := workload.StarSchema(1)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := star.Workload(seed)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// assertOwnCatalog checks that every table env's queries and analyses
// reference is the one env's own catalog registers under that name.
func assertOwnCatalog(t *testing.T, env *serve.Environment) {
	t.Helper()
	for i, q := range env.Queries {
		for r, rel := range q.Rels {
			if rel.Table != env.Catalog.Table(rel.Table.Name) {
				t.Errorf("%s rel %d: table %s is not this load's catalog entry", q.Name, r, rel.Table.Name)
			}
		}
		a := env.Analyses[i]
		if a.Q != q || a.Stats != env.Stats {
			t.Errorf("%s: analysis is not over this load's query and statistics", q.Name)
		}
		for r, ri := range a.Rels {
			if ri.Table != env.Catalog.Table(ri.Table.Name) {
				t.Errorf("%s analysis rel %d: table %s is not this load's catalog entry", q.Name, r, ri.Table.Name)
			}
		}
	}
}

func TestLoadsShareOnlyTheParsedWorkload(t *testing.T) {
	wl := testWorkload(t, 42)
	e1, err := loadEnvironment(1, wl, "")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := loadEnvironment(1, wl, "")
	if err != nil {
		t.Fatal(err)
	}
	if e1.Catalog == e2.Catalog || e1.Stats == e2.Stats {
		t.Fatal("two loads share a catalog or statistics store")
	}
	for i := range e1.Queries {
		q1, q2 := e1.Queries[i], e2.Queries[i]
		if q1 == q2 || e1.Analyses[i] == e2.Analyses[i] {
			t.Fatalf("%s: two loads share a query or an analysis", q1.Name)
		}
		if q1.Name != wl.Names[i] || q1.SQL != wl.Stmts[i].Text || q2.SQL != q1.SQL {
			t.Errorf("query %d: bound %s %q, workload has %s %q", i, q1.Name, q1.SQL, wl.Names[i], wl.Stmts[i].Text)
		}
	}
	assertOwnCatalog(t, e1)
	assertOwnCatalog(t, e2)
	// A freshly generated copy is the unshared original.
	if !reflect.DeepEqual(testWorkload(t, 42), wl) {
		t.Error("loading changed the shared parsed workload")
	}
}

func TestOverridesDriftMovesOnlyTheirTable(t *testing.T) {
	wl := testWorkload(t, 42)
	path := filepath.Join(t.TempDir(), "drift.json")
	write := func(s string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fingerprints := func() plancache.Fingerprints {
		t.Helper()
		env, err := loadEnvironment(1, wl, path)
		if err != nil {
			t.Fatal(err)
		}
		assertOwnCatalog(t, env)
		return plancache.FingerprintAll(env.Catalog, env.Stats, optimizer.DefaultCostParams())
	}

	write(`{}`)
	fp0 := fingerprints()
	write(`{"dim2_7": 4242424}`)
	fp1 := fingerprints()
	if fp0.Env == fp1.Env {
		t.Error("overriding dim2_7 did not move the environment fingerprint")
	}
	for name, h := range fp0.Tables {
		if moved := fp1.Tables[name] != h; moved != (name == "dim2_7") {
			t.Errorf("table %s: fingerprint moved = %v", name, moved)
		}
	}

	write(`not json`)
	if _, err := loadEnvironment(1, wl, path); err == nil {
		t.Error("a corrupt overrides file loaded")
	}
}
