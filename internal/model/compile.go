package model

import (
	"fmt"
	"math"

	"parsurf/internal/lattice"
)

// Compiled binds a Model to a concrete lattice and precomputes every
// lookup the simulation hot loops need:
//
//   - one flat translation-table arena holding, for every offset used by
//     any reaction pattern (and its inverse), the full site → site map,
//     so Enabled/Execute/TryExecute run over contiguous memory with no
//     per-trial modular arithmetic;
//   - per reaction type, the triples fused into parallel table-offset /
//     source / target arrays (no struct-of-slices pointer chasing);
//   - the dependency rows of every site in a flat CSR layout, and per
//     reaction type a refresh plan naming, for each site an execution
//     changes, the row columns that can see the change (see Change), so
//     the VSSM/FRM/tracker bookkeeping after an executed reaction is a
//     closure-free scan that skips every pair the change cannot affect.
//
// A Compiled is immutable after Compile returns: no method writes to
// the arena, the CSR tables, the plans or the per-type arrays, and the
// slices DepRow and Plan hand out alias the shared tables read-only. It
// is therefore safe to share one Compiled across any number of engines
// and goroutines — SessionSpec compiles once per spec and every
// session, ensemble replica and job worker reads the same tables
// (covered by the -race replica tests). Anything mutable lives in the
// engines, in the Config, or in per-call scratch the caller owns.
type Compiled struct {
	Model *Model
	Lat   *lattice.Lattice

	// Types holds one compiled pattern per reaction type, same order as
	// Model.Types.
	Types []CompiledType

	// Cum are the cumulative rates, K the total.
	Cum []float64
	K   float64

	// flat is the translation-table arena: table ordinal t occupies
	// flat[t*N : (t+1)*N], and flat[t*N+s] is site s translated by the
	// ordinal's offset.
	flat []int32

	// depSite holds the dependency rows: row z is
	// depSite[z*depW : (z+1)*depW], and column j of every row is one
	// (reaction type, triple) pair in type-ascending, triple-ascending
	// order. Entry j of row z is the application site at which that
	// triple lands on z — z translated by the triple's negated offset.
	// The column → type map is the same for every row, so it lives in
	// the plans rather than beside each row.
	depW    int
	depSite []int32
}

// CompiledType is a reaction type with its offsets resolved to shared
// translation tables. The Triples view and the fused tabOff/src/tgt
// arrays describe the same pattern; the hot-path methods use the fused
// form, Triples remains for inspection and tests.
type CompiledType struct {
	Rate    float64
	Triples []CompiledTriple

	// tabOff[i] is the arena offset of triple i's translation table:
	// the affected site for an application at s is flat[tabOff[i]+s].
	tabOff []int32
	// src and tgt are the triple source/target species, fused into
	// contiguous arrays.
	src []lattice.Species
	tgt []lattice.Species
	// plan has one Change per triple with src != tgt (the sites an
	// execution actually modifies), in triple order.
	plan []Change
}

// Change is one site that executing a reaction type modifies — a
// triple whose source species (old) differs from its target (new) —
// together with the dependency columns that can see the change. A
// column (type r, triple i) whose triple lands on the changed site is
// classified once, at compile time, by the species src_i it requires
// there:
//
//   - src_i is neither old nor new: the pair was disabled before the
//     execution and is disabled after it. It is skipped (not listed).
//   - src_i is old: the pair is certainly disabled after the execution.
//     It is listed with Drop set: remove it if present, no Enabled call.
//   - src_i is new: the pair may have become enabled. It is listed
//     without Drop: re-evaluate it with Enabled.
//
// The classification assumes the execution was enabled, so that the
// changed site held old before it. Deps keeps the row's column order
// (types ascending, triples ascending), and a full refresh of a skipped
// column changes nothing, so consuming the plan performs every
// effective insert, removal and random draw in the order a refresh of
// the full row would.
type Change struct {
	// tabOff is the arena offset of the changed triple's table.
	tabOff int32
	Deps   []Dep
}

// Dep is one listed dependency column of a Change: the pair (RT, the
// application site in column Col of the changed site's DepRow).
type Dep struct {
	Col  int32
	RT   int32
	Drop bool
}

// CompiledTriple mirrors Triple with a resolved translation table:
// the affected site for an application at s is Table[s].
type CompiledTriple struct {
	Table []int32
	Src   lattice.Species
	Tgt   lattice.Species
}

// Compile validates the model against the lattice and returns the
// compiled form. Compilation fails if the model is invalid or if any
// pattern self-collides on this lattice (two distinct offsets resolving
// to the same site because an extent is smaller than the pattern), which
// would make execution order-dependent.
func Compile(m *Model, lat *lattice.Lattice) (*Compiled, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := lat.N()
	cm := &Compiled{
		Model: m,
		Lat:   lat,
		Types: make([]CompiledType, len(m.Types)),
		Cum:   m.CumulativeRates(),
		K:     m.K(),
	}

	// Collect the distinct offsets in deterministic first-use order:
	// every pattern offset, then every negated offset (the inverse
	// tables the dependency CSR is built from).
	ordinals := make(map[lattice.Vec]int32)
	var offsets []lattice.Vec
	intern := func(v lattice.Vec) int32 {
		if t, ok := ordinals[v]; ok {
			return t
		}
		t := int32(len(offsets))
		ordinals[v] = t
		offsets = append(offsets, v)
		return t
	}
	numTriples := 0
	for i := range m.Types {
		for _, tr := range m.Types[i].Triples {
			intern(tr.Off)
			numTriples++
		}
	}
	for i := range m.Types {
		for _, tr := range m.Types[i].Triples {
			intern(tr.Off.Neg())
		}
	}
	if int64(len(offsets))*int64(n) > math.MaxInt32 ||
		int64(numTriples)*int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("model: %d offsets × %d sites overflow the compiled table arena", len(offsets), n)
	}

	// Fill the arena: one contiguous translation table per offset.
	cm.flat = make([]int32, len(offsets)*n)
	for t, off := range offsets {
		lat.FillTranslate(cm.flat[t*n:(t+1)*n], off)
	}
	tableOf := func(v lattice.Vec) []int32 {
		t := int(ordinals[v])
		return cm.flat[t*n : (t+1)*n]
	}

	for i := range m.Types {
		rt := &m.Types[i]
		k := len(rt.Triples)
		ct := CompiledType{
			Rate:    rt.Rate,
			Triples: make([]CompiledTriple, k),
			tabOff:  make([]int32, k),
			src:     make([]lattice.Species, k),
			tgt:     make([]lattice.Species, k),
		}
		for j, tr := range rt.Triples {
			ct.Triples[j] = CompiledTriple{
				Table: tableOf(tr.Off),
				Src:   tr.Src,
				Tgt:   tr.Tgt,
			}
			ct.tabOff[j] = ordinals[tr.Off] * int32(n)
			ct.src[j] = tr.Src
			ct.tgt[j] = tr.Tgt
		}
		// Detect wrap-around self-collision: the resolved sites of an
		// application at site 0 must be pairwise distinct.
		seen := make(map[int32]bool, k)
		for _, tr := range ct.Triples {
			site := tr.Table[0]
			if seen[site] {
				return nil, fmt.Errorf(
					"model: reaction %q pattern self-collides on a %dx%d lattice",
					rt.Name, lat.L0, lat.L1)
			}
			seen[site] = true
		}
		cm.Types[i] = ct
	}

	// Build the dependency rows. Column j is one (type, triple) pair,
	// types ascending and triples ascending; the enumeration order is
	// part of the engines' reproducibility contract.
	type column struct {
		rt  int32
		src lattice.Species
	}
	cols := make([]column, 0, numTriples)
	inv := make([][]int32, 0, numTriples)
	for r := range m.Types {
		for _, tr := range m.Types[r].Triples {
			inv = append(inv, tableOf(tr.Off.Neg()))
			cols = append(cols, column{int32(r), tr.Src})
		}
	}
	cm.depW = numTriples
	cm.depSite = make([]int32, n*numTriples)
	for z := 0; z < n; z++ {
		row := cm.depSite[z*numTriples : (z+1)*numTriples]
		for j, table := range inv {
			row[j] = table[z]
		}
	}

	// Classify the columns for every changed triple (see Change).
	for i := range cm.Types {
		ct := &cm.Types[i]
		for k, from := range ct.src {
			to := ct.tgt[k]
			if from == to {
				continue
			}
			c := Change{tabOff: ct.tabOff[k]}
			for j, col := range cols {
				if col.src == from || col.src == to {
					c.Deps = append(c.Deps, Dep{Col: int32(j), RT: col.rt, Drop: col.src == from})
				}
			}
			ct.plan = append(ct.plan, c)
		}
	}
	return cm, nil
}

// MustCompile is Compile that panics on error, for tests and examples
// with statically known-good models.
func MustCompile(m *Model, lat *lattice.Lattice) *Compiled {
	cm, err := Compile(m, lat)
	if err != nil {
		panic(err)
	}
	return cm
}

// NumTypes returns the number of reaction types.
func (cm *Compiled) NumTypes() int { return len(cm.Types) }

// Enabled reports whether reaction type rt is enabled at site s: the
// source pattern matches the configuration.
func (cm *Compiled) Enabled(cells []lattice.Species, rt, s int) bool {
	ct := &cm.Types[rt]
	flat := cm.flat
	tab := ct.tabOff
	srcs := ct.src
	// Surface-reaction patterns are almost always one or two sites;
	// the unrolled forms skip the loop bookkeeping on that path.
	if len(tab) == 2 && len(srcs) == 2 {
		return cells[flat[int(tab[0])+s]] == srcs[0] &&
			cells[flat[int(tab[1])+s]] == srcs[1]
	}
	if len(tab) == 1 && len(srcs) == 1 {
		return cells[flat[int(tab[0])+s]] == srcs[0]
	}
	for i, off := range tab {
		if cells[flat[int(off)+s]] != srcs[i] {
			return false
		}
	}
	return true
}

// Execute applies reaction type rt at site s (no enabledness check).
func (cm *Compiled) Execute(cells []lattice.Species, rt, s int) {
	ct := &cm.Types[rt]
	flat := cm.flat
	for i, off := range ct.tabOff {
		cells[flat[int(off)+s]] = ct.tgt[i]
	}
}

// TryExecute checks enabledness and executes on success, reporting
// whether the reaction fired. This is the body of one RSM/NDCA trial.
func (cm *Compiled) TryExecute(cells []lattice.Species, rt, s int) bool {
	ct := &cm.Types[rt]
	flat := cm.flat
	for i, off := range ct.tabOff {
		if cells[flat[int(off)+s]] != ct.src[i] {
			return false
		}
	}
	for i, off := range ct.tabOff {
		cells[flat[int(off)+s]] = ct.tgt[i]
	}
	return true
}

// PickType selects a reaction type with probability k_i/K given a uniform
// u in [0,1). Linear scan over the cumulative table: models have few
// types and the scan beats binary search at these sizes. It panics on a
// model with no positive total rate, and guards the u·K ≥ K boundary
// (reachable through floating-point rounding of u ≈ 1) by returning the
// last type with positive rate rather than whatever type is last.
func (cm *Compiled) PickType(u float64) int {
	if cm.K <= 0 {
		panic("model: PickType on a model with non-positive total rate")
	}
	target := u * cm.K
	for i, c := range cm.Cum {
		if target < c {
			return i
		}
	}
	for i := len(cm.Types) - 1; i >= 0; i-- {
		if cm.Types[i].Rate > 0 {
			return i
		}
	}
	return len(cm.Cum) - 1
}

// Plan returns the refresh plan of reaction type rt: one Change per
// site an execution modifies, in triple order. The slice aliases the
// compiled tables and must not be modified.
func (cm *Compiled) Plan(rt int) []Change { return cm.Types[rt].plan }

// ChangedSite returns the site that change c of a reaction type's plan
// modifies when the type executes at s.
func (cm *Compiled) ChangedSite(c *Change, s int) int {
	return int(cm.flat[int(c.tabOff)+s])
}

// DepRow returns the dependency row of site z: entry j is the
// application site at which column j's (type, triple) lands on z. The
// slice aliases the compiled tables and must not be modified.
func (cm *Compiled) DepRow(z int) []int32 {
	return cm.depSite[z*cm.depW : (z+1)*cm.depW]
}

// NbSites appends to dst the resolved neighbourhood sites of reaction
// type rt applied at s (all triples, changed or not).
func (cm *Compiled) NbSites(dst []int, rt, s int) []int {
	ct := &cm.Types[rt]
	flat := cm.flat
	for _, off := range ct.tabOff {
		dst = append(dst, int(flat[int(off)+s]))
	}
	return dst
}
