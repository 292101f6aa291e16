package scheduler_test

// Checks and benchmarks of the serial SGS decoder on instances the HILP
// model builder emits: examples/models/fig2.json, the Default workload on
// (c4,g16,d2^16), and generated workloads. Run the benchmarks with:
//
//	go test -run - -bench 'BenchmarkSGSDecode|BenchmarkAnnealRestart' -benchmem ./internal/scheduler

import (
	"context"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"hilp/internal/core"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
	"hilp/internal/wire"
	"hilp/internal/workgen"
)

type modelInstance struct {
	name string
	p    *scheduler.Problem
}

// c4g16d2 is the paper's highest-performing Pareto-optimal SoC.
var c4g16d2 = soc.Spec{CPUCores: 4, GPUSMs: 16, DSAs: []soc.DSA{{PEs: 16, Target: "LUD"}, {PEs: 16, Target: "HS"}}}

// benchInstances returns fig2.json at 1 s steps and the Default workload on
// (c4,g16,d2^16) at the DSE profile's first (10 s) and last (0.4 s) steps.
func benchInstances(tb testing.TB) []modelInstance {
	tb.Helper()
	data, err := os.ReadFile("../../examples/models/fig2.json")
	if err != nil {
		tb.Fatal(err)
	}
	m, err := wire.DecodeModel(data)
	if err != nil {
		tb.Fatal(err)
	}
	fig2, err := m.Build(1, 200)
	if err != nil {
		tb.Fatal(err)
	}
	out := []modelInstance{{"fig2", fig2.Problem}}
	for _, step := range []struct {
		name string
		sec  float64
	}{{"default-10s", 10}, {"default-0.4s", 0.4}} {
		in, err := core.BuildInstance(rodinia.DefaultWorkload(), c4g16d2, step.sec, core.DSEProfile.Horizon)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, modelInstance{step.name, in.Problem})
	}
	return out
}

// generatedInstances returns generated workloads on SoCs with and without
// bandwidth and power caps, at two resolutions.
func generatedInstances(tb testing.TB) []modelInstance {
	tb.Helper()
	var out []modelInstance
	for seed := int64(1); seed <= 4; seed++ {
		w, err := workgen.Generate(workgen.Config{Seed: seed, Apps: 2 + int(seed)})
		if err != nil {
			tb.Fatal(err)
		}
		for _, spec := range []soc.Spec{
			{CPUCores: 2, GPUSMs: 16},
			{CPUCores: 4, GPUSMs: 32, MemBandwidthGBs: 100},
			{CPUCores: 1, GPUSMs: 64, PowerBudgetWatts: 150},
		} {
			for _, sec := range []float64{10, 2} {
				in, err := core.BuildInstance(w, spec, sec, core.DSEProfile.Horizon)
				if err != nil {
					tb.Fatal(err)
				}
				out = append(out, modelInstance{w.Name, in.Problem})
			}
		}
	}
	return out
}

// decodeInputs returns the heuristic portfolio's lists plus annealing-style
// perturbations of them: relocated tasks, which need not keep the list
// precedence-feasible, and changed options.
func decodeInputs(p *scheduler.Problem, seed int64) (lists, opts [][]int) {
	lists, opts = scheduler.HeuristicLists(p)
	rng := rand.New(rand.NewSource(seed))
	n := len(p.Tasks)
	for k := len(lists); k < 32; k++ {
		list := append([]int(nil), lists[k%len(lists)]...)
		o := append([]int(nil), opts[k%len(opts)]...)
		for m := 1 + rng.Intn(n); m > 0; m-- {
			from, to := rng.Intn(n), rng.Intn(n)
			moved := list[from]
			list = append(list[:from], list[from+1:]...)
			list = append(list[:to], append([]int{moved}, list[to:]...)...)
			ti := rng.Intn(n)
			o[ti] = rng.Intn(len(p.Tasks[ti].Options))
		}
		lists = append(lists, list)
		opts = append(opts, o)
	}
	return lists, opts
}

func TestDecodeMatchesReferenceOnModels(t *testing.T) {
	insts := append(benchInstances(t), generatedInstances(t)...)
	for i, in := range insts {
		lists, opts := decodeInputs(in.p, int64(i))
		d := scheduler.NewDecoder(in.p)
		var dst scheduler.Schedule
		for k := range lists {
			want, wantOK := scheduler.ReferenceDecode(in.p, lists[k], opts[k])
			got, gotOK := d.Decode(lists[k], opts[k])
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s #%d list %d: decode = %+v, %v; reference %+v, %v", in.name, i, k, got, gotOK, want, wantOK)
			}
			if ok := d.DecodeInto(&dst, lists[k], opts[k]); ok != wantOK || ok && !reflect.DeepEqual(dst, want) {
				t.Fatalf("%s #%d list %d: decodeInto = %+v, %v; reference %+v, %v", in.name, i, k, dst, ok, want, wantOK)
			}
		}
	}
}

func TestImproversMatchReferenceOnModels(t *testing.T) {
	insts := append(benchInstances(t), generatedInstances(t)[:6]...)
	for i, in := range insts {
		acfg := scheduler.AnnealConfig{Iterations: 400, Restarts: 2, Seed: int64(i)}
		got, gotOK := scheduler.Anneal(context.Background(), in.p, acfg)
		want, wantOK := scheduler.ReferenceAnneal(in.p, acfg)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s #%d: Anneal = %+v, %v; reference %+v, %v", in.name, i, got, gotOK, want, wantOK)
		}
		tcfg := scheduler.TabuConfig{Iterations: 40, Seed: int64(i)}
		got, gotOK = scheduler.TabuSearch(context.Background(), in.p, tcfg)
		want, wantOK = scheduler.ReferenceTabu(in.p, tcfg)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s #%d: TabuSearch = %+v, %v; reference %+v, %v", in.name, i, got, gotOK, want, wantOK)
		}
	}
}

// TestDecodeIntoAllocatesNothing guards the annealer's hot path: once the
// destination and the timeline have grown to fit, a decode allocates
// nothing, whether it succeeds or fails.
func TestDecodeIntoAllocatesNothing(t *testing.T) {
	for _, in := range benchInstances(t) {
		lists, opts := decodeInputs(in.p, 1)
		d := scheduler.NewDecoder(in.p)
		var dst scheduler.Schedule
		decodeAll := func() {
			for k := range lists {
				d.DecodeInto(&dst, lists[k], opts[k])
			}
		}
		decodeAll()
		if allocs := testing.AllocsPerRun(20, decodeAll); allocs != 0 {
			t.Errorf("%s: %v allocations per %d decodes, want 0", in.name, allocs, len(lists))
		}
	}
}

// BenchmarkSGSDecode is one serial-SGS decode, the unit of every annealing
// and tabu move.
func BenchmarkSGSDecode(b *testing.B) {
	for _, in := range benchInstances(b) {
		b.Run(in.name, func(b *testing.B) {
			lists, opts := decodeInputs(in.p, 1)
			d := scheduler.NewDecoder(in.p)
			var dst scheduler.Schedule
			for k := range lists {
				d.DecodeInto(&dst, lists[k], opts[k])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(lists)
				d.DecodeInto(&dst, lists[k], opts[k])
			}
		})
	}
}

// BenchmarkAnnealRestart is one Anneal call with a single restart at effort
// 0.25, the budget hilp-dse and the sweep benchmarks use: the heuristic
// portfolio plus 0.25 x (2000 + 400 x tasks) moves.
func BenchmarkAnnealRestart(b *testing.B) {
	for _, in := range benchInstances(b) {
		b.Run(in.name, func(b *testing.B) {
			cfg := scheduler.AnnealConfig{Iterations: (2000 + 400*len(in.p.Tasks)) / 4, Restarts: 1, Seed: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := scheduler.Anneal(context.Background(), in.p, cfg); !ok {
					b.Fatal("anneal found no schedule")
				}
			}
		})
	}
}
