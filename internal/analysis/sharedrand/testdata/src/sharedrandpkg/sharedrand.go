// Package sharedrandpkg exercises the sharedrand analyzer.
package sharedrandpkg

import (
	"math/rand"

	"voyager/internal/tensor"
)

var globalRNG = rand.New(rand.NewSource(1)) // want "package-level \\*rand.Rand globalRNG"

type model struct {
	rng *rand.Rand
}

func goCapture(rng *rand.Rand, out []float64) {
	done := make(chan struct{})
	go func() {
		out[0] = rng.Float64() // want "\\*rand.Rand variable rng captured by closure launched via go statement"
		close(done)
	}()
	<-done
}

func goFieldCapture(m *model, out []float64) {
	done := make(chan struct{})
	go func() {
		out[0] = m.rng.Float64() // want "\\*rand.Rand field rng captured by closure launched via go statement"
		close(done)
	}()
	<-done
}

func poolCapture(rng *rand.Rand, out []float64) {
	tensor.RunTasks(len(out), func(w int) {
		out[w] = rng.Float64() // want "\\*rand.Rand variable rng captured by closure launched via RunTasks"
	})
}

func forkCapture(m *model, tp *tensor.Tape, out []float64) {
	tp.Fork(len(out), 0, func(i int, c *tensor.Tape) {
		out[i] = m.rng.Float64() // want "\\*rand.Rand field rng captured by closure launched via Fork"
	})
}

func perWorkerStreams(seed int64, out []float64) {
	tensor.RunTasks(len(out), func(w int) {
		rng := rand.New(rand.NewSource(seed + int64(w))) // local stream: fine
		out[w] = rng.Float64()
	})
}

func suppressedCapture(rng *rand.Rand, out []float64) {
	tensor.RunTasks(1, func(w int) {
		//lint:ignore sharedrand width-1 launch: only one goroutine ever draws
		out[0] = rng.Float64()
	})
}

func serialUse(rng *rand.Rand, out []float64) {
	for i := range out {
		out[i] = rng.Float64() // single goroutine: fine
	}
}
