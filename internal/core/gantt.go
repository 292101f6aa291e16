package core

import (
	"fmt"
	"strings"

	"hilp/internal/scheduler"
)

// Gantt renders an ASCII Gantt chart of the schedule, one row per cluster
// (GPU DVFS aliases collapse onto one device row), the way the paper plots
// its schedules in Figures 2, 3, and 10. The chart is scaled to at most
// width columns; width <= 0 selects 100.
func (in *Instance) Gantt(s scheduler.Schedule, width int) string {
	// One row per device group, labeled by the first cluster of the group.
	rowName := make([]string, in.Problem.NumGroups())
	for _, c := range in.Clusters {
		if rowName[c.Group] == "" {
			name := c.Name
			if c.Kind == GPUCluster {
				name = "gpu"
			}
			rowName[c.Group] = name
		}
	}
	return in.ganttChart(s, width, rowName, 0,
		func(i int, o scheduler.Option) (int, string) {
			return in.Problem.ClusterGroup[o.Cluster], in.Problem.Tasks[i].Name
		},
		func(makespan, cols int) string {
			return fmt.Sprintf("t=0%s%d steps", strings.Repeat(" ", max(1, cols-len(fmt.Sprint(makespan))-3)), makespan)
		})
}

// GanttByApp renders the schedule with one row per application, labeling
// segments by the cluster each phase ran on - the per-application view the
// paper uses in Figure 2. Width semantics match Gantt.
func (in *Instance) GanttByApp(s scheduler.Schedule, width int) string {
	var rowName []string
	for _, t := range in.Problem.Tasks {
		for len(rowName) <= t.App {
			rowName = append(rowName, "")
		}
		if rowName[t.App] == "" {
			name := t.Name
			if dot := strings.IndexByte(name, '.'); dot > 0 {
				name = name[:dot]
			}
			rowName[t.App] = name
		}
	}
	return in.ganttChart(s, width, rowName, 3,
		func(i int, o scheduler.Option) (int, string) {
			if o.Label == "" {
				return in.Problem.Tasks[i].App, in.Clusters[o.Cluster].Name
			}
			return in.Problem.Tasks[i].App, o.Label
		},
		func(makespan, _ int) string { return fmt.Sprintf("t=0 .. %d steps", makespan) })
}

// ganttChart draws one row per rowName entry, at least minName wide, and
// paints task i's segment on the row and with the label that segment gives
// for its chosen option; span renders the time axis heading the rows.
func (in *Instance) ganttChart(s scheduler.Schedule, width int, rowName []string, minName int,
	segment func(i int, o scheduler.Option) (row int, label string), span func(makespan, cols int) string) string {
	if width <= 0 {
		width = 100
	}
	makespan := 0
	for i := range in.Problem.Tasks {
		makespan = max(makespan, s.Finish(in.Problem, i))
	}
	if makespan == 0 || len(rowName) == 0 {
		return "(empty schedule)\n"
	}
	stepsPerCol := (makespan + width - 1) / width
	cols := (makespan + stepsPerCol - 1) / stepsPerCol
	nameWidth := minName
	rows := make([][]byte, len(rowName))
	for r, n := range rowName {
		nameWidth = max(nameWidth, len(n))
		rows[r] = []byte(strings.Repeat(".", cols))
	}
	for i := range in.Problem.Tasks {
		o := in.Problem.Tasks[i].Options[s.Option[i]]
		if o.Duration == 0 {
			continue
		}
		r, label := segment(i, o)
		c0 := s.Start[i] / stepsPerCol
		for c := c0; c <= (s.Start[i]+o.Duration-1)/stepsPerCol && c < cols; c++ {
			if k := c - c0; k < len(label) {
				rows[r][c] = label[k]
			} else {
				rows[r][c] = '='
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%*s  %s (%.4g s/step)\n", nameWidth, "", span(makespan, cols), in.StepSec)
	for r, row := range rows {
		fmt.Fprintf(&b, "%-*s  %s\n", nameWidth, rowName[r], row)
	}
	return b.String()
}

// WLPHistogram renders the distribution of per-step WLP values as a small
// text histogram, quantifying how much workload-level parallelism the
// schedule actually exploits.
func (in *Instance) WLPHistogram(s scheduler.Schedule) string {
	profile := s.WLPProfile(in.Problem)
	if len(profile) == 0 {
		return "(empty schedule)\n"
	}
	peak := 0
	for _, a := range profile {
		if a > peak {
			peak = a
		}
	}
	counts := make([]int, peak+1)
	for _, a := range profile {
		counts[a]++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "WLP distribution over %d steps (avg %.2f):\n", len(profile), s.WLP(in.Problem))
	for wlp := 0; wlp <= peak; wlp++ {
		if counts[wlp] == 0 {
			continue
		}
		frac := float64(counts[wlp]) / float64(len(profile))
		bar := strings.Repeat("#", int(frac*40+0.5))
		fmt.Fprintf(&b, "  %2d: %5.1f%% %s\n", wlp, 100*frac, bar)
	}
	return b.String()
}

// DescribeSchedule lists every task's placement in start order, with
// human-readable times.
func (in *Instance) DescribeSchedule(s scheduler.Schedule) string {
	type row struct {
		start int
		text  string
	}
	rows := make([]row, 0, len(in.Problem.Tasks))
	for i := range in.Problem.Tasks {
		t := &in.Problem.Tasks[i]
		o := t.Options[s.Option[i]]
		rows = append(rows, row{
			start: s.Start[i],
			text: fmt.Sprintf("%-14s %-12s start %7.4gs  dur %7.4gs",
				t.Name, o.Label, float64(s.Start[i])*in.StepSec, float64(o.Duration)*in.StepSec),
		})
	}
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j].start < rows[j-1].start; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(r.text)
		b.WriteByte('\n')
	}
	return b.String()
}
