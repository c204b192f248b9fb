// Package parsurf is a library for stochastic simulation of surface
// reactions on two-dimensional lattices, reproducing "Methods for
// parallel simulations of surface reactions" (Nedea, Lukkien, Jansen,
// Hilbers; IPPS 2003 / arXiv:physics/0209017).
//
// It provides:
//
//   - the reaction-type formalism of the paper's §2 (species domains,
//     translation-invariant patterns, rate constants);
//   - exact Dynamic Monte Carlo engines: the Random Selection Method
//     (RSM), the Variable Step Size Method (VSSM/direct) and the First
//     Reaction Method (FRM);
//   - Cellular Automaton engines: NDCA, synchronous NDCA with conflict
//     accounting, and Block CA with shifting tilings;
//   - the paper's contribution: lattice partitions satisfying the
//     non-overlap rule, and the partitioned algorithms PNDCA, L-PNDCA
//     (four chunk-selection strategies) and the type-partitioned
//     variant, with bit-deterministic parallel execution;
//   - the evaluation models: the Ziff–Gulari–Barshad CO-oxidation model
//     (Table I) and a Pt(100) surface-reconstruction model with kinetic
//     oscillations, plus diffusion/Ising/single-file auxiliaries;
//   - a simulated parallel machine reproducing the paper's speedup
//     study (Fig. 7), and a channel-based domain-decomposition RSM
//     baseline.
//
// The recommended entry point is the Session API: every engine is
// registered under a string name (Engines lists them) and a Session
// wires model, lattice, engine and seed in one declarative call:
//
//	sess, err := parsurf.NewSession(
//		parsurf.WithModelPreset("zgb", nil),
//		parsurf.WithLattice(256, 256),
//		parsurf.WithEngine("lpndca", parsurf.Trials(100), parsurf.Strategy(parsurf.RateWeighted)),
//		parsurf.WithSeed(42),
//	)
//	stats, err := sess.Run(ctx, parsurf.Until(200), parsurf.SampleEvery(0.25, obs))
//
// A SessionSpec is one plain-data document: partitions, type splits,
// initial conditions and models are all named registry entries (or
// inline model text), and NewSpec and ParseSpec validate it the same
// way, so a spec round-trips exactly through JSON (MarshalJSON,
// ParseSpec; schema in internal/specfile) and reruns bit-identically —
// from Go, from a file (`surfsim -spec run.json`), or over HTTP
// (cmd/surfd, backed by the internal/job manager: bounded runner pool,
// per-job progress, cancellation).
//
// RunEnsemble executes independent replicas of a SessionSpec on split
// RNG streams across goroutines, sampling every replica on a shared
// TimeGrid and streaming them through a per-grid-point moment merge;
// RunSweep runs one such ensemble per spec variant over a single
// worker pool — the workhorses for phase-diagram and criteria sweeps.
// For fine-grained control, NewEngine builds a named engine with the
// same options over an explicit compiled model, configuration and
// random source. It and Session.Engine return the Engine interface;
// type-assert it to the concrete engine types (*RSM, *LPNDCA, …) for
// engine-specific counters.
//
// The façade in this package re-exports the pieces needed for everyday
// use; the sub-packages under internal/ carry the implementations and
// their documentation.
package parsurf

import (
	"parsurf/internal/ca"
	"parsurf/internal/core"
	"parsurf/internal/dmc"
	"parsurf/internal/lattice"
	"parsurf/internal/machine"
	"parsurf/internal/model"
	"parsurf/internal/parallel"
	"parsurf/internal/partition"
	"parsurf/internal/rng"
	"parsurf/internal/stats"
	"parsurf/internal/ziff"
)

// Core lattice and model types.
type (
	// Lattice is the periodic L0×L1 site grid Ω.
	Lattice = lattice.Lattice
	// Config is a system state, a complete assignment Ω → D.
	Config = lattice.Config
	// Species is an element of the particle domain D.
	Species = lattice.Species
	// Vec is a translation-invariant lattice offset.
	Vec = lattice.Vec
	// Model is a species domain plus reaction types.
	Model = model.Model
	// ReactionType is one reaction rule with its rate constant.
	ReactionType = model.ReactionType
	// Triple is one (offset, source, target) element of a pattern.
	Triple = model.Triple
	// Compiled is a model bound to a lattice with precomputed tables.
	Compiled = model.Compiled
	// Partition is a disjoint chunk cover of the lattice.
	Partition = partition.Partition
	// TypeSplit is the Ω×T partitioning of the type-partitioned method.
	TypeSplit = partition.TypeSplit
	// Series is a sampled time series.
	Series = stats.Series
	// RNG is the deterministic splittable random source.
	RNG = rng.Source
	// MachineModel is the virtual parallel machine of the Fig. 7 study.
	MachineModel = machine.Model
)

// Engine types.
type (
	// RSM is the Random Selection Method (paper §3).
	RSM = dmc.RSM
	// VSSM is the variable-step-size (direct) method.
	VSSM = dmc.VSSM
	// FRM is the first reaction method.
	FRM = dmc.FRM
	// NDCA is the non-deterministic cellular automaton (paper §4).
	NDCA = ca.NDCA
	// SyncNDCA is the synchronous NDCA with conflict resolution.
	SyncNDCA = ca.SyncNDCA
	// BCA is the block cellular automaton (paper §5, Fig. 3).
	BCA = ca.BCA
	// PNDCA is the partitioned NDCA (paper §5).
	PNDCA = core.PNDCA
	// LPNDCA is the generalised L-trials partitioned NDCA (paper §5).
	LPNDCA = core.LPNDCA
	// TypePartitioned is the Ω×T-partitioned algorithm (paper §5).
	TypePartitioned = core.TypePartitioned
	// DDRSM is the Segers-style domain-decomposition RSM baseline.
	DDRSM = parallel.DDRSM
	// ZiffZGB is the classic adsorption-limited ZGB simulation.
	ZiffZGB = ziff.ZGB
)

// Chunk-selection strategies for LPNDCA.
const (
	AllInOrder        = core.AllInOrder
	AllRandomOrder    = core.AllRandomOrder
	RandomReplacement = core.RandomReplacement
	RateWeighted      = core.RateWeighted
)

// Model parameter bundles.
type (
	// ZGBRates are the CO-oxidation rate constants of Table I.
	ZGBRates = model.ZGBRates
	// PtCORates parameterise the Pt(100) reconstruction model.
	PtCORates = model.PtCORates
)

// NewLattice returns a periodic l0×l1 lattice.
func NewLattice(l0, l1 int) *Lattice { return lattice.New(l0, l1) }

// NewSquareLattice returns an l×l lattice.
func NewSquareLattice(l int) *Lattice { return lattice.NewSquare(l) }

// NewConfig returns the all-vacant configuration on lat.
func NewConfig(lat *Lattice) *Config { return lattice.NewConfig(lat) }

// NewRNG returns a deterministic random source for the given seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// NewZGBModel builds the seven-reaction-type CO-oxidation model of the
// paper's Table I.
func NewZGBModel(r ZGBRates) *Model { return model.NewZGB(r) }

// DefaultZGBRates returns rates inside the reactive window.
func DefaultZGBRates() ZGBRates { return model.DefaultZGBRates() }

// NewPtCOModel builds the Pt(100) CO-oxidation model with surface
// reconstruction (the oscillating system of the paper's §6).
func NewPtCOModel(r PtCORates) *Model { return model.NewPtCO(r) }

// DefaultPtCORates returns rates in the oscillatory regime.
func DefaultPtCORates() PtCORates { return model.DefaultPtCORates() }

// NewDiffusionModel builds the single-species hop model of Fig. 2.
func NewDiffusionModel(hop float64) *Model { return model.NewDimerDiffusion(hop) }

// NewIsingModel builds a Metropolis spin-flip Ising model with coupling
// betaJ (in units of kB·T).
func NewIsingModel(betaJ float64) *Model { return model.NewIsing(betaJ) }

// Compile binds a model to a lattice.
func Compile(m *Model, lat *Lattice) (*Compiled, error) { return model.Compile(m, lat) }

// MustCompile is Compile that panics on error.
func MustCompile(m *Model, lat *Lattice) *Compiled { return model.MustCompile(m, lat) }

// VonNeumann5 returns the five-chunk partition of Fig. 4.
func VonNeumann5(lat *Lattice) (*Partition, error) { return partition.VonNeumann5(lat) }

// Checkerboard returns the two-chunk partition of Fig. 6.
func Checkerboard(lat *Lattice) (*Partition, error) { return partition.Checkerboard(lat) }

// SingleChunk returns the m=1 partition (L-PNDCA ≡ RSM).
func SingleChunk(lat *Lattice) *Partition { return partition.SingleChunk(lat) }

// Singletons returns the m=N partition (L-PNDCA with L=1 ≡ RSM).
func Singletons(lat *Lattice) *Partition { return partition.Singletons(lat) }

// ModularColoring searches for the smallest valid modular colouring for
// the model on the lattice.
func ModularColoring(m *Model, lat *Lattice, maxK int) (*Partition, error) {
	return partition.ModularColoring(m, lat, maxK)
}

// VerifyNonOverlap checks the all-types non-overlap rule of §5.
func VerifyNonOverlap(p *Partition, m *Model) error { return partition.VerifyNonOverlap(p, m) }

// SplitByDirection builds the Table II reaction-type split with
// checkerboard partitions.
func SplitByDirection(m *Model, lat *Lattice) (*TypeSplit, error) {
	return partition.SplitByDirection(m, lat)
}

// DefaultMachine returns the virtual parallel machine calibrated to the
// paper's setting (Fig. 7).
func DefaultMachine() MachineModel { return machine.Default() }

// PtCoverages extracts (CO, O, square-phase) coverages from a Pt(100)
// configuration.
func PtCoverages(c *Config) (co, o, sq float64) { return model.PtCoverages(c) }
