// Package core implements HILP itself: it turns a workload and an SoC
// specification into the scheduling instance of the paper's §III (the
// T/B/P/E/U matrices realized as tasks, options, clusters, and cumulative
// resources), solves it to near-optimality with adaptive time-step
// resolution (§III-D), and reports makespan, speedup, WLP, and the schedule.
package core

import (
	"fmt"
	"math"

	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
)

// ClusterKind tells what hardware a cluster models.
type ClusterKind int

// Cluster kinds.
const (
	CPUCluster ClusterKind = iota
	GPUCluster
	DSACluster
)

// String names the kind.
func (k ClusterKind) String() string {
	switch k {
	case CPUCluster:
		return "cpu"
	case GPUCluster:
		return "gpu"
	case DSACluster:
		return "dsa"
	}
	return fmt.Sprintf("ClusterKind(%d)", int(k))
}

// ClusterInfo describes one scheduler cluster of a built instance.
type ClusterInfo struct {
	Name      string
	Kind      ClusterKind
	Group     int     // device group (GPU DVFS aliases share one)
	FreqMHz   float64 // GPU operating point, 0 otherwise
	DSATarget string  // benchmark the DSA accelerates, "" otherwise
}

// Instance is a ready-to-solve scheduling instance plus the metadata needed
// to interpret and render its schedules.
type Instance struct {
	Problem  *scheduler.Problem
	Clusters []ClusterInfo
	StepSec  float64
	Workload rodinia.Workload
	Spec     soc.Spec

	// Resource indices into Problem.Resources; -1 when the constraint is
	// not active.
	PowerRes, BWRes, CPURes int
}

// Steps converts seconds to integer time steps at the instance resolution
// (ceiling, minimum one step for any positive time - the paper requires all
// phase times to be an integer number of steps).
func (in *Instance) Steps(sec float64) int { return StepsAt(sec, in.StepSec) }

// StepsAt converts seconds to steps at an explicit resolution.
func StepsAt(sec, stepSec float64) int {
	if sec <= 0 {
		return 0
	}
	s := int(math.Ceil(sec/stepSec - 1e-9))
	if s < 1 {
		s = 1
	}
	return s
}

// BuildOptions tweaks instance construction for ablation studies.
type BuildOptions struct {
	// DisableParallelCPU removes the option of running a compute phase
	// across all CPU cores (the paper's Eq. 8 machinery), leaving only
	// sequential single-core execution.
	DisableParallelCPU bool
}

// BuildInstance expands (workload, SoC) into a scheduling instance at the
// given time-step resolution. Each application contributes setup, compute,
// and teardown tasks in a dependency chain (Eq. 2). Setup and teardown run
// on any single CPU core; compute runs on a CPU core (sequential), across
// all CPU cores (parallel, consuming u_max cores - Eq. 8), on any GPU DVFS
// operating point, or on the application's DSA if the SoC has one.
func BuildInstance(w rodinia.Workload, spec soc.Spec, stepSec float64, horizon int) (*Instance, error) {
	return BuildInstanceOpts(w, spec, stepSec, horizon, BuildOptions{})
}

// BuildInstanceOpts is BuildInstance with construction tweaks.
func BuildInstanceOpts(w rodinia.Workload, spec soc.Spec, stepSec float64, horizon int, bopts BuildOptions) (*Instance, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if stepSec <= 0 {
		return nil, fmt.Errorf("core: step size %g, want > 0", stepSec)
	}
	if len(w.Apps) == 0 {
		return nil, fmt.Errorf("core: workload %q has no applications", w.Name)
	}
	inWorkload := map[string]bool{}
	for _, app := range w.Apps {
		inWorkload[app.Bench.Abbrev] = true
	}
	for _, d := range spec.DSAs {
		if !inWorkload[d.Target] {
			return nil, fmt.Errorf("core: DSA targets %q, which is not in workload %q", d.Target, w.Name)
		}
	}

	in := &Instance{StepSec: stepSec, Workload: w, Spec: spec, PowerRes: -1, BWRes: -1, CPURes: -1}

	// Clusters: one per CPU core, one per GPU DVFS point (shared group), one
	// per DSA.
	for c := 0; c < spec.CPUCores; c++ {
		in.Clusters = append(in.Clusters, ClusterInfo{Name: fmt.Sprintf("cpu%d", c), Kind: CPUCluster, Group: c})
	}
	group, gpuFirst := spec.CPUCores, spec.CPUCores
	if spec.GPUSMs > 0 {
		for _, f := range spec.GPUFrequenciesMHz {
			in.Clusters = append(in.Clusters, ClusterInfo{Name: fmt.Sprintf("gpu@%gMHz", f), Kind: GPUCluster, Group: group, FreqMHz: f})
		}
		group++
	}
	dsaCluster := map[string]int{}
	for _, d := range spec.DSAs {
		dsaCluster[d.Target] = len(in.Clusters)
		in.Clusters = append(in.Clusters, ClusterInfo{Name: fmt.Sprintf("dsa-%s", d.Target), Kind: DSACluster, Group: group, DSATarget: d.Target})
		group++
	}

	resources := in.capResources(spec.PowerBudgetWatts, spec.MemBandwidthGBs)
	in.CPURes = len(resources)
	resources = append(resources, scheduler.Resource{Name: "cpu-cores", Capacity: float64(spec.CPUCores)})

	// option places a phase on u at the given cluster.
	option := func(u soc.Unit, cluster int, label string) scheduler.Option {
		d := in.capDemand(len(resources), u.Watts+soc.MemoryPowerWatts(u.GBs), u.GBs)
		d[in.CPURes] = float64(u.Cores)
		return scheduler.Option{Cluster: cluster, Duration: in.Steps(u.Sec), Demand: d, Label: label}
	}
	var tasks []scheduler.Task
	for appIdx, app := range w.Apps {
		b := app.Bench
		fixedSec := [3]float64{app.SetupSec(), 0, app.TeardownSec()}
		for phase, name := range [...]string{".setup", ".compute", ".teardown"} {
			t := scheduler.Task{Name: b.Abbrev + name, App: appIdx, Phase: phase}
			if phase > 0 {
				t.Deps = []scheduler.Dep{{Task: len(tasks) - 1}}
			}
			// add appends the options of running t on u: one per core for a
			// single-core unit, one on u's cluster otherwise.
			gpu := gpuFirst
			add := func(u soc.Unit) {
				switch {
				case u.Cores == 1:
					for c := 0; c < spec.CPUCores; c++ {
						t.Options = append(t.Options, option(u, c, in.Clusters[c].Name))
					}
				case u.DSA != "":
					c := dsaCluster[u.DSA]
					t.Options = append(t.Options, option(u, c, in.Clusters[c].Name))
				case u.Cores == 0: // a GPU operating point
					t.Options = append(t.Options, option(u, gpu, in.Clusters[gpu].Name))
					gpu++
				case !bopts.DisableParallelCPU: // all cores
					t.Options = append(t.Options, option(u, 0, u.Label()))
				}
			}
			// Compute runs on any of the spec's compute units; setup and
			// teardown on any single CPU core with no memory traffic.
			if phase == 1 {
				spec.ComputeUnits(b, add)
			} else {
				add(soc.Unit{Cores: 1, Sec: fixedSec[phase], Watts: soc.CPUCoreWatts})
			}
			tasks = append(tasks, t)
		}
	}
	if err := in.assemble(tasks, resources, horizon); err != nil {
		return nil, fmt.Errorf("core: built an invalid instance: %w", err)
	}
	return in, nil
}

// capResources returns the power and bandwidth resources for the caps that
// are positive and finite, recording their indices in in.PowerRes and
// in.BWRes. Both instance builders start their resource list with it.
func (in *Instance) capResources(powerW, bwGBs float64) []scheduler.Resource {
	var resources []scheduler.Resource
	if powerW > 0 && !math.IsInf(powerW, 1) {
		in.PowerRes = len(resources)
		resources = append(resources, scheduler.Resource{Name: "power", Capacity: powerW})
	}
	if bwGBs > 0 && !math.IsInf(bwGBs, 1) {
		in.BWRes = len(resources)
		resources = append(resources, scheduler.Resource{Name: "bandwidth", Capacity: bwGBs})
	}
	return resources
}

// capDemand returns a demand vector over n resources holding powerW and
// bwGBs at the cap resources' indices.
func (in *Instance) capDemand(n int, powerW, bwGBs float64) []float64 {
	d := make([]float64, n)
	if in.PowerRes >= 0 {
		d[in.PowerRes] = powerW
	}
	if in.BWRes >= 0 {
		d[in.BWRes] = bwGBs
	}
	return d
}

// assemble sets in.Problem from the tasks, the resources and the device
// groups of in.Clusters, and validates it.
func (in *Instance) assemble(tasks []scheduler.Task, resources []scheduler.Resource, horizon int) error {
	groups := make([]int, len(in.Clusters))
	for i, c := range in.Clusters {
		groups[i] = c.Group
	}
	in.Problem = &scheduler.Problem{
		Tasks:        tasks,
		NumClusters:  len(in.Clusters),
		ClusterGroup: groups,
		Resources:    resources,
		Horizon:      horizon,
	}
	return in.Problem.Validate()
}

// SequentialSteps returns the makespan, in steps, of the naive fully
// sequential single-CPU-core schedule at the instance's resolution. It is
// the discretized version of the paper's speedup baseline.
func (in *Instance) SequentialSteps() int {
	total := 0
	for _, app := range in.Workload.Apps {
		total += in.Steps(app.SetupSec())
		total += in.Steps(soc.CPUTimeSec(app.Bench, 1))
		total += in.Steps(app.TeardownSec())
	}
	return total
}
