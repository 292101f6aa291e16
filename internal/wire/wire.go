// Package wire defines the stable JSON schema shared by hilp-serve, its
// clients, and the cmd/hilp model loaders. Internal structs (rodinia.Workload,
// soc.Spec, scheduler.Config, core.Result) are free to evolve; the wire types
// pin explicit field names and a schema version so serialized payloads stay
// readable across releases. Conversions to and from the internal types live
// here so no other package marshals internals directly.
package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"hilp/internal/core"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
)

// SchemaVersion identifies this wire format. Responses always carry it;
// requests may omit it (0 is treated as the current version).
//
// Version history:
//
//	1 — initial schema: evaluate/sweep requests, Result, Point, Job.
//	2 — additive: batch requests (BatchRequest/BatchResponse/BatchStats),
//	    sweep-engine options (cache, warmStart, pruning) on sweep and batch
//	    requests, and cacheHit/warmStarted/pruned/prunedBy/speedupBound on
//	    Point. Every v1 payload decodes unchanged.
//	3 — additive: crash-recovery journal record types (JournalRecord and
//	    friends, see journal.go), resume metadata (resumed on Point,
//	    resumed/resumedPoints on Job, resumed on BatchStats). Every v1/v2
//	    payload decodes unchanged.
const SchemaVersion = 3

// CheckVersion rejects payloads from a newer schema than this binary speaks.
func CheckVersion(v int) error {
	if v < 0 || v > SchemaVersion {
		return fmt.Errorf("wire: schema version %d not supported (this binary speaks <= %d)", v, SchemaVersion)
	}
	return nil
}

// Workload names a built-in workload or lists applications explicitly.
type Workload struct {
	// Name selects a built-in workload ("rodinia", "default", "optimized")
	// when Apps is empty; otherwise it only labels the workload.
	Name string `json:"name,omitempty"`
	// Apps lists applications by Table II benchmark abbreviation.
	Apps []App `json:"apps,omitempty"`
}

// App is one application of a workload.
type App struct {
	// Bench is the benchmark abbreviation from the paper's Table II
	// (e.g. "LUD", "HS", "SRAD").
	Bench string `json:"bench"`
	// SetupTeardownDiv divides the measured setup/teardown times
	// (1 = Rodinia, 5 = Default, 20 = Optimized). 0 selects 1.
	SetupTeardownDiv float64 `json:"setupTeardownDiv,omitempty"`
}

// ToWorkload resolves the wire workload against the built-in benchmark table.
func (w Workload) ToWorkload() (rodinia.Workload, error) {
	if len(w.Apps) == 0 {
		switch strings.ToLower(w.Name) {
		case "", "default":
			return rodinia.DefaultWorkload(), nil
		case "rodinia":
			return rodinia.RodiniaWorkload(), nil
		case "optimized":
			return rodinia.OptimizedWorkload(), nil
		default:
			return rodinia.Workload{}, core.BadField("workload.name", core.CodeUnknown,
				"unknown built-in workload %q (want rodinia, default, or optimized)", w.Name)
		}
	}
	byAbbrev := map[string]rodinia.Benchmark{}
	for _, b := range rodinia.Benchmarks() {
		byAbbrev[strings.ToUpper(b.Abbrev)] = b
	}
	out := rodinia.Workload{Name: w.Name}
	if out.Name == "" {
		out.Name = "custom"
	}
	for i, a := range w.Apps {
		b, ok := byAbbrev[strings.ToUpper(a.Bench)]
		if !ok {
			return rodinia.Workload{}, core.BadField(
				fmt.Sprintf("workload.apps[%d].bench", i), core.CodeUnknown,
				"unknown benchmark %q", a.Bench)
		}
		div := a.SetupTeardownDiv
		if div == 0 {
			div = 1
		}
		if math.IsNaN(div) || math.IsInf(div, 0) || div < 0 {
			return rodinia.Workload{}, core.BadField(
				fmt.Sprintf("workload.apps[%d].setupTeardownDiv", i), core.CodeRange,
				"setupTeardownDiv %g, want finite > 0", div)
		}
		out.Apps = append(out.Apps, rodinia.Application{Bench: b, SetupTeardownDiv: div})
	}
	return out, nil
}

// FromWorkload converts an internal workload to the wire form, listing every
// application explicitly.
func FromWorkload(w rodinia.Workload) Workload {
	out := Workload{Name: w.Name}
	for _, a := range w.Apps {
		out.Apps = append(out.Apps, App{Bench: a.Bench.Abbrev, SetupTeardownDiv: a.SetupTeardownDiv})
	}
	return out
}

// SoC is the wire form of a paper-template SoC configuration. A negative
// budget means explicitly unconstrained (internal +Inf); 0 selects the
// paper default.
type SoC struct {
	CPUCores          int       `json:"cpuCores"`
	GPUSMs            int       `json:"gpuSMs,omitempty"`
	DSAs              []DSA     `json:"dsas,omitempty"`
	DSAAdvantage      float64   `json:"dsaAdvantage,omitempty"`
	GPUFrequenciesMHz []float64 `json:"gpuFrequenciesMHz,omitempty"`
	MemBandwidthGBs   float64   `json:"memBandwidthGBs,omitempty"`
	PowerBudgetWatts  float64   `json:"powerBudgetWatts,omitempty"`
}

// DSA is one domain-specific accelerator.
type DSA struct {
	PEs    int    `json:"pes"`
	Target string `json:"target"`
}

// ToSpec converts to the internal SoC spec (negative budgets become +Inf).
func (s SoC) ToSpec() soc.Spec {
	out := soc.Spec{
		CPUCores:          s.CPUCores,
		GPUSMs:            s.GPUSMs,
		DSAAdvantage:      s.DSAAdvantage,
		GPUFrequenciesMHz: s.GPUFrequenciesMHz,
		MemBandwidthGBs:   s.MemBandwidthGBs,
		PowerBudgetWatts:  s.PowerBudgetWatts,
	}
	if s.MemBandwidthGBs < 0 {
		out.MemBandwidthGBs = math.Inf(1)
	}
	if s.PowerBudgetWatts < 0 {
		out.PowerBudgetWatts = math.Inf(1)
	}
	for _, d := range s.DSAs {
		out.DSAs = append(out.DSAs, soc.DSA{PEs: d.PEs, Target: d.Target})
	}
	return out
}

// FromSpec converts an internal spec to the wire form (+Inf budgets become
// -1, which is not valid JSON as infinity).
func FromSpec(s soc.Spec) SoC {
	out := SoC{
		CPUCores:          s.CPUCores,
		GPUSMs:            s.GPUSMs,
		DSAAdvantage:      s.DSAAdvantage,
		GPUFrequenciesMHz: s.GPUFrequenciesMHz,
		MemBandwidthGBs:   s.MemBandwidthGBs,
		PowerBudgetWatts:  s.PowerBudgetWatts,
	}
	if math.IsInf(s.MemBandwidthGBs, 1) {
		out.MemBandwidthGBs = -1
	}
	if math.IsInf(s.PowerBudgetWatts, 1) {
		out.PowerBudgetWatts = -1
	}
	for _, d := range s.DSAs {
		out.DSAs = append(out.DSAs, DSA{PEs: d.PEs, Target: d.Target})
	}
	return out
}

// SolverConfig is the wire form of the scheduling-search configuration.
// Observability sinks are intentionally not serializable.
type SolverConfig struct {
	Seed           int64   `json:"seed,omitempty"`
	Effort         float64 `json:"effort,omitempty"`
	GapTarget      float64 `json:"gapTarget,omitempty"`
	ExactTaskLimit int     `json:"exactTaskLimit,omitempty"`
	ExactNodeLimit int     `json:"exactNodeLimit,omitempty"`
	Restarts       int     `json:"restarts,omitempty"`
	Improver       string  `json:"improver,omitempty"`
}

// ToConfig converts to the internal solver configuration.
func (c SolverConfig) ToConfig() scheduler.Config {
	return scheduler.Config{
		Seed:           c.Seed,
		Effort:         c.Effort,
		GapTarget:      c.GapTarget,
		ExactTaskLimit: c.ExactTaskLimit,
		ExactNodeLimit: c.ExactNodeLimit,
		Restarts:       c.Restarts,
		Improver:       c.Improver,
	}
}

// FromConfig converts an internal solver configuration to the wire form.
func FromConfig(c scheduler.Config) SolverConfig {
	return SolverConfig{
		Seed:           c.Seed,
		Effort:         c.Effort,
		GapTarget:      c.GapTarget,
		ExactTaskLimit: c.ExactTaskLimit,
		ExactNodeLimit: c.ExactNodeLimit,
		Restarts:       c.Restarts,
		Improver:       c.Improver,
	}
}

// Profile is the wire form of the adaptive-resolution profile (§III-D).
type Profile struct {
	InitialStepSec   float64 `json:"initialStepSec"`
	Horizon          int     `json:"horizon"`
	RefineWhileBelow int     `json:"refineWhileBelow"`
	MaxRefinements   int     `json:"maxRefinements"`
}

// ToProfile converts to the internal profile.
func (p Profile) ToProfile() core.Profile {
	return core.Profile{
		InitialStepSec:   p.InitialStepSec,
		Horizon:          p.Horizon,
		RefineWhileBelow: p.RefineWhileBelow,
		MaxRefinements:   p.MaxRefinements,
	}
}

// FromProfile converts an internal profile to the wire form.
func FromProfile(p core.Profile) Profile {
	return Profile{
		InitialStepSec:   p.InitialStepSec,
		Horizon:          p.Horizon,
		RefineWhileBelow: p.RefineWhileBelow,
		MaxRefinements:   p.MaxRefinements,
	}
}

// Result is the wire form of one evaluation outcome.
type Result struct {
	SchemaVersion int `json:"schemaVersion"`
	// SpecLabel is the paper's (c_i,g_j,d_k^l) naming of the evaluated SoC,
	// empty for custom-model solves.
	SpecLabel   string  `json:"specLabel,omitempty"`
	StepSec     float64 `json:"stepSec,omitempty"`
	MakespanSec float64 `json:"makespanSec"`
	Speedup     float64 `json:"speedup"`
	WLP         float64 `json:"wlp"`
	Gap         float64 `json:"gap"`
	Refinements int     `json:"refinements,omitempty"`
	// Proven is true when the schedule is provably optimal; a cancelled
	// result never claims it.
	Proven bool   `json:"proven,omitempty"`
	Method string `json:"method,omitempty"`
	// Cancelled is true when the solve was cut short by a deadline or
	// cancellation: the metrics describe the best incumbent, and Gap is the
	// (valid, possibly loose) certificate at that point.
	Cancelled bool `json:"cancelled,omitempty"`
	// Degraded is true when the primary solver failed and the result came
	// from the heuristic fallback chain; FallbackReason classifies why.
	Degraded       bool   `json:"degraded,omitempty"`
	FallbackReason string `json:"fallbackReason,omitempty"`
}

// FromResult converts an internal evaluation to the wire form.
func FromResult(r *core.Result) Result {
	return Result{
		SchemaVersion:  SchemaVersion,
		StepSec:        r.StepSec,
		MakespanSec:    r.MakespanSec,
		Speedup:        r.Speedup,
		WLP:            r.WLP,
		Gap:            r.Gap,
		Refinements:    r.Refinements,
		Cancelled:      r.Cancelled,
		Degraded:       r.Degraded,
		FallbackReason: r.FallbackReason,
		// A cancelled evaluation never claims proven: the deadline stopped
		// the refinement loop, so a proof at the resolution it reached does
		// not certify the result the loop would have returned.
		Proven: r.Sched.Proven && !r.Cancelled,
		Method: r.Sched.Method,
	}
}

// Point is the wire form of one sweep point.
type Point struct {
	Spec        SoC     `json:"spec"`
	Label       string  `json:"label"`
	AreaMM2     float64 `json:"areaMM2"`
	Speedup     float64 `json:"speedup"`
	WLP         float64 `json:"wlp"`
	Gap         float64 `json:"gap"`
	MakespanSec float64 `json:"makespanSec"`
	Mix         string  `json:"mix"`
	Cancelled   bool    `json:"cancelled,omitempty"`
	// Degraded marks a point whose solve fell back to the heuristic
	// scheduler; FallbackReason classifies why.
	Degraded       bool   `json:"degraded,omitempty"`
	FallbackReason string `json:"fallbackReason,omitempty"`
	Error          string `json:"error,omitempty"`
	// RequestID is the point's correlation ID, linking it to its log lines
	// and latency exemplar; empty when observability is disabled.
	RequestID string `json:"requestId,omitempty"`
	// CacheHit marks a point whose result was replayed from an earlier
	// canonically-equivalent point of the same batch (schema v2).
	CacheHit bool `json:"cacheHit,omitempty"`
	// WarmStarted marks a point whose search was seeded with a solved
	// neighbor's schedule (schema v2).
	WarmStarted bool `json:"warmStarted,omitempty"`
	// Pruned marks a point skipped by dominance pruning: it was never
	// solved; SpeedupBound certifies the best speedup it could possibly
	// achieve and PrunedBy names the solved dominating point (schema v2).
	Pruned       bool    `json:"pruned,omitempty"`
	PrunedBy     string  `json:"prunedBy,omitempty"`
	SpeedupBound float64 `json:"speedupBound,omitempty"`
	// Resumed marks a point replayed from a crash-recovery checkpoint
	// journal instead of re-solved: the metrics are the prior run's, verbatim
	// (schema v3). Resume metadata, not a metric — identical inputs yield
	// identical metrics whether or not a point was resumed.
	Resumed bool `json:"resumed,omitempty"`
}

// Hash is the canonical-content hash shared by the hilp-serve LRU cache and
// the sweep engine's memoizer: hex SHA-256 over a canonical (re-marshaled,
// field-order-stable) encoding, so two JSON bodies that decode to the same
// value share a key regardless of whitespace or key order.
func Hash(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// CanonicalKey marshals v compactly (struct field order is stable in Go's
// encoding/json) and returns its Hash.
func CanonicalKey(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return Hash(b), nil
}

// Marshal renders any wire value as indented JSON with a trailing newline.
func Marshal(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
