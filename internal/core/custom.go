package core

import (
	"fmt"
	"math"

	"hilp/internal/scheduler"
)

// CustomModel describes an arbitrary workload and SoC directly, without
// going through the Rodinia/SoC-template machinery. It exists for the
// paper's extensibility case study (§VII: streaming dataflow with fork-join
// dependency graphs) and for the JSON interface of cmd/hilp. Dependencies
// may form any DAG (Eq. 9) and may carry initiation-interval lags.
type CustomModel struct {
	Name string
	// Clusters define the compute units; clusters sharing a Group name are
	// mutually exclusive DVFS-style aliases of one physical device.
	Clusters []CustomCluster
	// Tasks are the application phases.
	Tasks []CustomTask
	// PowerBudgetW caps total power; 0 or +Inf disables the constraint.
	PowerBudgetW float64
	// BandwidthGBs caps memory bandwidth; 0 or +Inf disables the constraint.
	BandwidthGBs float64
	// Extra adds further cumulative resources (the paper's §VII "other
	// extensions": e.g. one bandwidth constraint per cache level). Options
	// declare their consumption via CustomOption.ExtraDemand, keyed by
	// resource name; missing keys mean zero demand.
	Extra []CustomResource
}

// CustomResource is an additional cumulative resource constraint.
type CustomResource struct {
	Name     string
	Capacity float64
}

// CustomCluster is one compute unit (or one operating point of one).
type CustomCluster struct {
	Name  string
	Group string // defaults to Name: its own device
}

// CustomTask is one schedulable phase.
type CustomTask struct {
	Name    string
	App     int // application the phase belongs to (for WLP accounting)
	Phase   int
	Deps    []CustomDep
	Options []CustomOption
}

// CustomDep references a predecessor task by name.
type CustomDep struct {
	Task   string
	Kind   scheduler.DepKind
	LagSec float64
}

// CustomOption is one placement choice: the execution time and resource
// demands of the phase on a named cluster.
type CustomOption struct {
	Cluster      string
	Sec          float64
	PowerW       float64
	BandwidthGBs float64
	// ExtraDemand declares consumption of the model's Extra resources by
	// name; absent names mean zero.
	ExtraDemand map[string]float64
	Label       string
}

// Build compiles the model into a solvable instance at the given resolution.
// Invalid models fail with a *ValidationError wrapping ErrBadModel, each
// problem addressed by field path. Build relies on Validate for every name
// and reference check, so the lookups below always resolve.
func (m CustomModel) Build(stepSec float64, horizon int) (*Instance, error) {
	if stepSec <= 0 || math.IsNaN(stepSec) || math.IsInf(stepSec, 0) {
		return nil, BadField("stepSec", CodeRange, "step size %g, want finite > 0", stepSec)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}

	in := &Instance{StepSec: stepSec, PowerRes: -1, BWRes: -1, CPURes: -1}

	clusterIdx := map[string]int{}
	groupIdx := map[string]int{}
	for _, c := range m.Clusters {
		g := c.Group
		if g == "" {
			g = c.Name
		}
		if _, ok := groupIdx[g]; !ok {
			groupIdx[g] = len(groupIdx)
		}
		clusterIdx[c.Name] = len(in.Clusters)
		in.Clusters = append(in.Clusters, ClusterInfo{Name: c.Name, Kind: kindFromName(c.Name), Group: groupIdx[g]})
	}

	resources := in.capResources(m.PowerBudgetW, m.BandwidthGBs)
	extraIdx := map[string]int{}
	for _, r := range m.Extra {
		extraIdx[r.Name] = len(resources)
		resources = append(resources, scheduler.Resource{Name: r.Name, Capacity: r.Capacity})
	}

	taskIdx := map[string]int{}
	for i, t := range m.Tasks {
		taskIdx[t.Name] = i
	}

	tasks := make([]scheduler.Task, len(m.Tasks))
	for i, t := range m.Tasks {
		st := scheduler.Task{Name: t.Name, App: t.App, Phase: t.Phase}
		for _, d := range t.Deps {
			st.Deps = append(st.Deps, scheduler.Dep{Task: taskIdx[d.Task], Kind: d.Kind, Lag: StepsAt(d.LagSec, stepSec)})
		}
		for _, o := range t.Options {
			d := in.capDemand(len(resources), o.PowerW, o.BandwidthGBs)
			for name, v := range o.ExtraDemand {
				d[extraIdx[name]] = v
			}
			label := o.Label
			if label == "" {
				label = o.Cluster
			}
			st.Options = append(st.Options, scheduler.Option{
				Cluster:  clusterIdx[o.Cluster],
				Duration: StepsAt(o.Sec, stepSec),
				Demand:   d,
				Label:    label,
			})
		}
		tasks[i] = st
	}

	if err := in.assemble(tasks, resources, horizon); err != nil {
		return nil, fmt.Errorf("core: model %q: %w", m.Name, err)
	}
	return in, nil
}

// kindFromName guesses a display kind from conventional cluster names.
func kindFromName(name string) ClusterKind {
	switch {
	case len(name) >= 3 && name[:3] == "gpu":
		return GPUCluster
	case len(name) >= 3 && name[:3] == "dsa":
		return DSACluster
	default:
		return CPUCluster
	}
}
