package sql_test

import (
	"reflect"
	"testing"

	"github.com/pinumdb/pinum/internal/sql"
	"github.com/pinumdb/pinum/internal/workload"
)

// FuzzParseBind fuzzes the SQL trust boundary /explain exposes to
// clients: Parse never panics, a parsed statement binds against the star
// catalog without panicking and identically twice, and the canonical
// rendering parses back to the same statement.
func FuzzParseBind(f *testing.F) {
	star, err := workload.StarSchema(1)
	if err != nil {
		f.Fatal(err)
	}
	for seed := int64(42); seed <= 49; seed++ {
		w, err := star.Workload(seed)
		if err != nil {
			f.Fatal(err)
		}
		for _, stmt := range w.Stmts {
			f.Add(stmt.Text)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sql.Parse(src)
		if err != nil {
			return
		}

		q1, err1 := sql.Bind(stmt, star.Catalog, "fuzz")
		q2, err2 := sql.Bind(stmt, star.Catalog, "fuzz")
		if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("binding twice disagrees: %v vs %v", err1, err2)
		}
		if !reflect.DeepEqual(q1, q2) {
			t.Fatalf("binding twice gives different queries for %q", src)
		}

		text := stmt.String()
		back, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("rendering %q of %q does not parse: %v", text, src, err)
		}
		if got, want := withoutSource(back), withoutSource(stmt); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip of %q through %q:\n got %+v\nwant %+v", src, text, got, want)
		}
	})
}

// withoutSource copies a statement minus what depends on the exact
// source text: Text and every byte offset.
func withoutSource(s *sql.SelectStmt) sql.SelectStmt {
	out := *s
	out.Text = ""
	cols := func(in []sql.ColumnExpr) []sql.ColumnExpr {
		var cs []sql.ColumnExpr
		for _, c := range in {
			c.Pos = 0
			cs = append(cs, c)
		}
		return cs
	}
	out.Columns, out.GroupBy, out.OrderBy = cols(s.Columns), cols(s.GroupBy), cols(s.OrderBy)
	out.From = nil
	for _, te := range s.From {
		te.Pos = 0
		out.From = append(out.From, te)
	}
	out.Where = nil
	for _, p := range s.Where {
		p.Pos, p.Left.Pos, p.Right.Pos = 0, 0, 0
		out.Where = append(out.Where, p)
	}
	return out
}
