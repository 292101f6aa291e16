package scheduler

// Hooks for the external scheduler_test package, whose tests and benchmarks
// build instances through core. core imports this package, so code that
// needs both cannot live in package scheduler itself.

// Decoder exposes a reusable serial SGS.
type Decoder struct{ g *sgs }

func NewDecoder(p *Problem) *Decoder { return &Decoder{g: newSGS(p)} }

func (d *Decoder) Decode(list, opts []int) (Schedule, bool) { return d.g.decode(list, opts) }

func (d *Decoder) DecodeInto(dst *Schedule, list, opts []int) bool {
	return d.g.decodeInto(dst, list, opts)
}

// ReferenceDecode is the differential oracle of sgs_oracle_test.go.
func ReferenceDecode(p *Problem, list, opts []int) (Schedule, bool) {
	return referenceDecode(p, list, opts)
}

// HeuristicLists returns the heuristic portfolio's activity lists and
// option choices.
func HeuristicLists(p *Problem) (lists, opts [][]int) {
	for _, c := range heuristicCandidates(p) {
		lists = append(lists, c.list)
		opts = append(opts, c.opts)
	}
	return lists, opts
}

// ReferenceAnneal and ReferenceTabu are the improvers' searches driven by
// the reference decoder.
func ReferenceAnneal(p *Problem, cfg AnnealConfig) (Schedule, bool) { return referenceAnneal(p, cfg) }

func ReferenceTabu(p *Problem, cfg TabuConfig) (Schedule, bool) { return referenceTabu(p, cfg) }
