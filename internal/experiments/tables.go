package experiments

import (
	"fmt"
	"strings"

	"voyager/internal/sim"
	"voyager/internal/trace"
	"voyager/internal/voyager"
)

// Table1 renders the paper's Table 1 (Voyager hyperparameters) for both the
// paper configuration and the scaled configuration this run trains
// (Options.voyagerConfig; the epoch length, which depends on the stream,
// is not in the table).
func (r *Run) Table1() string {
	p := voyager.PaperConfig()
	s := r.Opts.voyagerConfig(0)
	var b strings.Builder
	b.WriteString("Table 1: Hyperparameters for training Voyager\n")
	row := func(name string, pv, sv interface{}) {
		fmt.Fprintf(&b, "  %-38s %-12v %v\n", name, pv, sv)
	}
	fmt.Fprintf(&b, "  %-38s %-12s %s\n", "", "paper", "scaled")
	row("Sequence length (history length)", p.SeqLen, s.SeqLen)
	row("Learning rate", p.LearningRate, s.LearningRate)
	row("Learning rate decay ratio", p.DecayRatio, s.DecayRatio)
	row("Embedding size for PC", p.PCEmbed, s.PCEmbed)
	row("Embedding size of page", p.PageEmbed, s.PageEmbed)
	row("Embedding size of offset", p.OffsetEmbed(), s.OffsetEmbed())
	row("# Experts", p.Experts, s.Experts)
	row("Page and offset LSTM # layers", 1, 1)
	row("Page and offset LSTM # units", p.Hidden, s.Hidden)
	row("Dropout keep ratio", p.DropoutKeep, s.DropoutKeep)
	row("Batch size", p.BatchSize, s.BatchSize)
	row("Optimizer", "Adam", "Adam")
	return b.String()
}

// Table2Row is one benchmark-statistics row.
type Table2Row struct {
	Stats trace.Stats
}

// Table2Result holds the benchmark statistics (paper Table 2).
type Table2Result struct {
	Rows []Table2Row
}

// Table2 computes the benchmark statistics over every benchmark's trace.
func (r *Run) Table2() *Table2Result {
	res := &Table2Result{}
	for _, name := range r.Opts.benchList(benchNamesAll()) {
		tr := r.Opts.traceFor(r.cache, name)
		res.Rows = append(res.Rows, Table2Row{Stats: trace.ComputeStats(tr)})
	}
	return res
}

// String renders Table 2.
func (t *Table2Result) String() string {
	var b strings.Builder
	b.WriteString("Table 2: Benchmark statistics\n")
	fmt.Fprintf(&b, "  %-10s %8s %12s %8s %10s\n", "Benchmark", "# PCs", "# Addresses", "# Pages", "Accesses")
	for _, row := range t.Rows {
		s := row.Stats
		fmt.Fprintf(&b, "  %-10s %8d %12d %8d %10d\n", s.Name, s.PCs, s.Addresses, s.Pages, s.Accesses)
	}
	return b.String()
}

// Table3 renders the simulation configuration (paper Table 3).
func Table3() string {
	return "Table 3: Simulation configuration\n" + sim.DefaultConfig().String() + "\n" +
		"DRAM         tRP=tRCD=tCAS=20, 2 channels, 8 ranks x 8 banks,\n" +
		"             32K rows, 8 GB/s per core\n"
}

func benchNamesAll() []string {
	return allNames
}
