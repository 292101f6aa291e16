package baselines

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"testing"

	"hilp/internal/core"
	"hilp/internal/dag"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
	"hilp/internal/wire"
)

// pinCaps are the power and bandwidth budgets the pinned grid crosses with
// the §VI design space: none, a power cap, a bandwidth cap, and both.
var pinCaps = []struct{ powerW, bwGBs float64 }{{0, 0}, {60, 0}, {0, 40}, {45, 30}}

// pinSteps are the DSE profile's three resolutions.
var pinSteps = []float64{10, 2, 0.4}

// pinWorkloads are the paper's three Rodinia workloads.
func pinWorkloads() []rodinia.Workload {
	return []rodinia.Workload{rodinia.DefaultWorkload(), rodinia.RodiniaWorkload(), rodinia.OptimizedWorkload()}
}

// pinFloat writes f's exact bits.
func pinFloat(h hash.Hash, f float64) { fmt.Fprintf(h, "%016x;", math.Float64bits(f)) }

// pinInstance writes every field of a built instance (or its error).
func pinInstance(h hash.Hash, in *core.Instance, err error) {
	if err != nil {
		fmt.Fprintf(h, "err %s;", err)
		return
	}
	c := *in
	c.Problem = nil
	fmt.Fprintf(h, "%#v;%#v;", c, *in.Problem)
	pinFloat(h, in.StepSec)
}

// pinModels are the custom models the pin builds: the Fig. 2 example, the
// §VII streaming dataflow with start-start lags, one with Extra resources and
// DVFS groups, and invalid ones whose refusal Validate owns.
func pinModels(t *testing.T) []core.CustomModel {
	t.Helper()
	data, err := os.ReadFile("../../examples/models/fig2.json")
	if err != nil {
		t.Fatal(err)
	}
	fig2, err := wire.DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	sda, err := dag.SDA(dag.SDAConfig{Instances: 3, SampleIntervalSec: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	extra := core.CustomModel{
		Name:         "extra",
		Clusters:     []core.CustomCluster{{Name: "cpu0"}, {Name: "gpu@lo", Group: "gpu"}, {Name: "gpu@hi", Group: "gpu"}},
		PowerBudgetW: 10,
		BandwidthGBs: 50,
		Extra:        []core.CustomResource{{Name: "l2", Capacity: 3}, {Name: "noc", Capacity: 1.5}},
		Tasks: []core.CustomTask{
			{Name: "a", Options: []core.CustomOption{
				{Cluster: "cpu0", Sec: 1.25, PowerW: 2, ExtraDemand: map[string]float64{"l2": 1}},
				{Cluster: "gpu@lo", Sec: 0.7, PowerW: 4, BandwidthGBs: 20, ExtraDemand: map[string]float64{"l2": 2, "noc": 1}, Label: "slow"},
			}},
			{Name: "b", App: 1, Options: []core.CustomOption{
				{Cluster: "gpu@hi", Sec: 0.3, PowerW: 8, BandwidthGBs: 40, ExtraDemand: map[string]float64{"noc": 1.5}},
			}},
			{Name: "c", App: 1, Phase: 1, Deps: []core.CustomDep{{Task: "b"}, {Task: "a", Kind: scheduler.StartStart, LagSec: 0.4}},
				Options: []core.CustomOption{{Cluster: "cpu0", Sec: 2, PowerW: 1}}},
		},
	}
	bad := func(edit func(m *core.CustomModel)) core.CustomModel {
		m := extra
		m.Clusters = append([]core.CustomCluster(nil), extra.Clusters...)
		m.Extra = append([]core.CustomResource(nil), extra.Extra...)
		m.Tasks = append([]core.CustomTask(nil), extra.Tasks...)
		edit(&m)
		return m
	}
	return []core.CustomModel{
		fig2, sda, extra,
		bad(func(m *core.CustomModel) { m.Clusters[1].Name = "cpu0" }),
		bad(func(m *core.CustomModel) { m.Clusters[2].Name = "" }),
		bad(func(m *core.CustomModel) { m.Extra[1].Name = "" }),
		bad(func(m *core.CustomModel) { m.Extra[1].Name = "power" }),
		bad(func(m *core.CustomModel) { m.Extra[1].Name = "l2" }),
		bad(func(m *core.CustomModel) { m.Tasks[1].Name = "" }),
		bad(func(m *core.CustomModel) { m.Tasks[1].Name = "a" }),
		bad(func(m *core.CustomModel) { m.Tasks[2].Deps = []core.CustomDep{{Task: "zz"}} }),
		bad(func(m *core.CustomModel) { m.Tasks[2].Options = nil }),
		bad(func(m *core.CustomModel) { m.Tasks[2].Options = []core.CustomOption{{Cluster: "tpu", Sec: 1}} }),
		bad(func(m *core.CustomModel) {
			m.Tasks[2].Options = []core.CustomOption{{Cluster: "cpu0", Sec: 1, ExtraDemand: map[string]float64{"l3": 1}}}
		}),
	}
}

// pinHash hashes what the SoC tables feed: Rodinia instances (with and
// without the parallel-CPU option) on every 7th §VI design point under four
// caps at three resolutions, custom-model instances, and the analytic seconds
// bound and MultiAmdahl on every design point. It returns the digest and the
// number of Rodinia instances built.
func pinHash(t *testing.T) (string, int) {
	h := sha256.New()
	built := 0
	for _, w := range pinWorkloads() {
		for _, c := range pinCaps {
			specs := soc.DesignSpace(w, soc.SpaceConfig{PowerW: c.powerW, MemBWGBs: c.bwGBs})
			for i, s := range specs {
				pinFloat(h, core.AnalyticLowerBoundSec(w, s))
				ma, err := MultiAmdahl(w, s)
				if err != nil {
					fmt.Fprintf(h, "ma err %s;", err)
				} else {
					fmt.Fprintf(h, "ma %#v;", ma.Choices)
					pinFloat(h, ma.MakespanSec)
					pinFloat(h, ma.Speedup)
				}
				if i%7 != 0 {
					continue
				}
				for _, step := range pinSteps {
					for _, noPar := range []bool{false, true} {
						in, err := core.BuildInstanceOpts(w, s, step, 400, core.BuildOptions{DisableParallelCPU: noPar})
						pinInstance(h, in, err)
						built++
					}
				}
			}
		}
	}
	for _, m := range pinModels(t) {
		for _, step := range []float64{1, 0.5, 0.25} {
			in, err := m.Build(step, 200)
			pinInstance(h, in, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), built
}

// TestSoCTablesPinned pins, bit for bit, every instance, bound and baseline
// result derived from the per-phase compute-unit table, so a refactor of how
// the units are enumerated cannot change what HILP, the pruning bound and
// MultiAmdahl see.
func TestSoCTablesPinned(t *testing.T) {
	const want = "4961c787e82b886e9db6f5746055e1519d7e2eaabb3beb0ca78e33c54e78b6fc"
	got, built := pinHash(t)
	if built != 3888 {
		t.Errorf("built %d Rodinia instances, want 3888", built)
	}
	if got != want {
		t.Errorf("pin hash = %s, want %s", got, want)
	}
}
