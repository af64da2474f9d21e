package plancache

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/stats"
	"github.com/pinumdb/pinum/internal/workload"
)

// TestFingerprintGolden pins fingerprint values as literals. Every
// snapshot on disk is stamped with Env, so any change to the field
// stream — order, encoding, tags — would silently reject all of them as
// stale; these values were produced by the original two-walk
// implementation and must never move.
func TestFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		scale  float64
		drift  bool
		env    uint64
		tables map[string]uint64
	}{
		{scale: 0.25, env: 0x275ade44ec164a3d,
			tables: map[string]uint64{"fact": 0xdbf00bd7de70b094, "dim1_1": 0x3fc959e9bed0ca59}},
		{scale: 1, env: 0xaabed22b151d8c98,
			tables: map[string]uint64{"fact": 0x8524641fab4724a8, "dim1_1": 0xa3dfe258a73b6bd5}},
		{scale: 4, env: 0xc78fcbb4169f53ee,
			tables: map[string]uint64{"fact": 0x7cc6dd31ffbe01f0, "dim1_1": 0x46816607e2be957a}},
		// dim2_7 drifted to 4,242,424 rows: Env and dim2_7 move, fact
		// keeps its scale-1 value.
		{scale: 1, drift: true, env: 0x4e981d7e56934d03,
			tables: map[string]uint64{"fact": 0x8524641fab4724a8, "dim2_7": 0x6ad05a7116a4acf1}},
	} {
		s, err := workload.StarSchema(tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		if tc.drift {
			if err := s.SetTableRows("dim2_7", 4242424); err != nil {
				t.Fatal(err)
			}
		}
		params := optimizer.DefaultCostParams()
		fps := FingerprintAll(s.Catalog, s.Stats, params)
		if got := Fingerprint(s.Catalog, s.Stats, params); got != tc.env || fps.Env != tc.env {
			t.Errorf("scale %v drift %v: Fingerprint %016x, FingerprintAll.Env %016x, want %016x",
				tc.scale, tc.drift, got, fps.Env, tc.env)
		}
		for name, want := range tc.tables {
			if got := fps.Tables[name]; got != want {
				t.Errorf("scale %v drift %v: table %s %016x, want %016x", tc.scale, tc.drift, name, got, want)
			}
		}
	}
}

// refHasher is the reference field stream: the same fields FingerprintAll
// hashes, written through hash/fnv one encoded field at a time.
type refHasher struct {
	h   hash.Hash64
	buf [8]byte
}

func (f *refHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(f.buf[:], v)
	f.h.Write(f.buf[:])
}
func (f *refHasher) i64(v int64)   { f.u64(uint64(v)) }
func (f *refHasher) f64(v float64) { f.u64(math.Float64bits(v)) }
func (f *refHasher) str(s string) {
	f.u64(uint64(len(s)))
	io.WriteString(f.h, s)
}

func (f *refHasher) header(tag string, p optimizer.CostParams) {
	f.str(tag)
	f.f64(p.SeqPageCost)
	f.f64(p.RandomPageCost)
	f.f64(p.CPUTupleCost)
	f.f64(p.CPUIndexTupleCost)
	f.f64(p.CPUOperatorCost)
}

func (f *refHasher) table(t *catalog.Table, st *stats.Store) {
	f.str(t.Name)
	f.i64(t.RowCount)
	f.i64(t.Pages)
	for _, col := range t.Columns {
		f.str(col.Name)
		f.i64(int64(col.Type))
		f.i64(int64(col.AvgWidth))
		f.i64(col.NDV)
		f.i64(col.Min)
		f.i64(col.Max)
		notNull := uint64(0)
		if col.NotNull {
			notNull = 1
		}
		f.u64(notNull)
		if st == nil {
			continue
		}
		cs := st.Get(t.Name, col.Name)
		if cs == nil {
			continue
		}
		f.str("stats")
		f.i64(cs.Rows)
		f.i64(cs.Distinct)
		f.i64(cs.Min)
		f.i64(cs.Max)
		if cs.Hist != nil {
			f.i64(cs.Hist.Rows)
			f.i64(cs.Hist.Distinct)
			for _, b := range cs.Hist.Bounds {
				f.i64(b)
			}
		}
	}
	for _, fk := range t.ForeignKeys {
		f.str(fk.Column)
		f.str(fk.RefTable)
		f.str(fk.RefColumn)
	}
}

// refFingerprints computes both fingerprint kinds the reference way: one
// hash/fnv stream for the environment and one per table.
func refFingerprints(cat *catalog.Catalog, st *stats.Store, p optimizer.CostParams) Fingerprints {
	env := &refHasher{h: fnv.New64a()}
	env.header("pinum-plancache-fp-v1", p)
	out := Fingerprints{Tables: map[string]uint64{}}
	for _, t := range cat.Tables() {
		env.table(t, st)
		tf := &refHasher{h: fnv.New64a()}
		tf.header("pinum-plancache-tablefp-v1", p)
		tf.table(t, st)
		out.Tables[t.Name] = tf.h.Sum64()
	}
	out.Env = env.h.Sum64()
	return out
}

// TestFingerprintAllMatchesReference checks the inline one-walk hashes
// against the hash/fnv reference stream, table by table, across scales,
// a drifted table, altered cost parameters and a missing statistics
// store.
func TestFingerprintAllMatchesReference(t *testing.T) {
	repriced := optimizer.DefaultCostParams()
	repriced.RandomPageCost *= 2
	for _, tc := range []struct {
		name   string
		scale  float64
		drift  bool
		params optimizer.CostParams
		noStat bool
	}{
		{name: "scale=0.25", scale: 0.25, params: optimizer.DefaultCostParams()},
		{name: "scale=1", scale: 1, params: optimizer.DefaultCostParams()},
		{name: "scale=4", scale: 4, params: optimizer.DefaultCostParams()},
		{name: "scale=1/drifted", scale: 1, drift: true, params: optimizer.DefaultCostParams()},
		{name: "scale=1/repriced", scale: 1, params: repriced},
		{name: "scale=1/no-stats", scale: 1, params: optimizer.DefaultCostParams(), noStat: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := workload.StarSchema(tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			if tc.drift {
				if err := s.SetTableRows("dim2_7", 4242424); err != nil {
					t.Fatal(err)
				}
			}
			st := s.Stats
			if tc.noStat {
				st = nil
			}
			got := FingerprintAll(s.Catalog, st, tc.params)
			want := refFingerprints(s.Catalog, st, tc.params)
			if got.Env != want.Env {
				t.Errorf("Env %016x, reference %016x", got.Env, want.Env)
			}
			if len(got.Tables) != len(want.Tables) {
				t.Fatalf("%d table fingerprints, reference %d", len(got.Tables), len(want.Tables))
			}
			for name, fp := range want.Tables {
				if got.Tables[name] != fp {
					t.Errorf("table %s: %016x, reference %016x", name, got.Tables[name], fp)
				}
			}
		})
	}
}

// BenchmarkFingerprintAll measures the one walk a tenant load performs
// over the scale-1 star environment.
func BenchmarkFingerprintAll(b *testing.B) {
	s, err := workload.StarSchema(1)
	if err != nil {
		b.Fatal(err)
	}
	params := optimizer.DefaultCostParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FingerprintAll(s.Catalog, s.Stats, params)
	}
}
