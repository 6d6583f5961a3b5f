//go:build !amd64

package tensor

import (
	"runtime"
	"testing"
)

// vecPaths returns no path: off amd64 only the Go kernels exist.
func vecPaths(tb testing.TB) []kernelPath {
	tb.Log("no vector kernels on " + runtime.GOARCH + ": both sides run the Go kernels")
	return nil
}

func (kernelPath) use(testing.TB) {}
