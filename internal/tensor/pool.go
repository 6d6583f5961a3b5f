package tensor

import (
	"runtime"
	"sync"
)

// The package keeps one persistent worker pool shared by every kernel (and,
// through RunTasks, by higher-level shard orchestration). Spawning a fresh
// goroutine per matmul call — the seed implementation's strategy — costs a
// scheduler round-trip on every hot-path kernel; the pool pays that cost
// once at startup and then dispatches chunks over a channel.
//
// Pool tasks must be leaves: a task may not block on other pool tasks.
// Kernels satisfy this by construction (a chunk is pure computation), which
// is what makes the shared pool deadlock-free even when many goroutines
// submit concurrently.

// chunkTask is one contiguous [lo, hi) slice of a parallel loop. Matmul
// kernels ship as a top-level kernel function plus its three matrix operands
// (kern/dst/a/b) instead of a capturing closure: a closure would be a fresh
// heap allocation on every kernel dispatch, and the steady-state matmul
// budget is zero allocations (see TestMatMulKernelsAllocFree).
type chunkTask struct {
	fn     func(lo, hi int)
	kern   matKernel
	dst    *Mat
	a, b   *Mat
	lo, hi int
	wg     *sync.WaitGroup
}

// matKernel is a row-range matmul kernel over fixed operands.
type matKernel = func(dst, a, b *Mat, lo, hi int)

var (
	poolOnce  sync.Once
	poolTasks chan chunkTask
	poolSize  int
)

func startPool() {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	poolSize = n
	poolTasks = make(chan chunkTask, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for t := range poolTasks {
				if t.kern != nil {
					t.kern(t.dst, t.a, t.b, t.lo, t.hi)
				} else {
					t.fn(t.lo, t.hi)
				}
				t.wg.Done()
			}
		}()
	}
}

// PoolWorkers returns the size of the shared worker pool (GOMAXPROCS at
// first use). Callers sizing their own data-parallel shards should match it.
func PoolWorkers() int {
	poolOnce.Do(startPool)
	return poolSize
}

// Parallel splits [0, n) into contiguous chunks and runs fn on each using
// the shared worker pool, blocking until all chunks complete. The calling
// goroutine executes the first chunk itself, so a single-chunk split never
// touches the pool. fn must not submit further pool work.
func Parallel(n int, fn func(lo, hi int)) {
	poolOnce.Do(startPool)
	chunks := poolSize
	if chunks > n {
		chunks = n
	}
	if chunks <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		poolTasks <- chunkTask{fn: fn, lo: lo, hi: hi, wg: &wg}
	}
	fn(0, chunk)
	wg.Wait()
}

// RunTasks runs k independent tasks on the shared pool, blocking until all
// complete; task i receives its index. Unlike Parallel's chunk tasks, these
// tasks MAY themselves call Parallel: RunTasks executes them on fresh
// goroutines rather than pool workers, so pool workers never block waiting
// for other pool work. Used for coarse-grained shard fan-out (one task per
// minibatch shard).
func RunTasks(k int, task func(i int)) {
	if k <= 1 {
		if k == 1 {
			task(0)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for i := 1; i < k; i++ {
		go func(i int) {
			defer wg.Done()
			task(i)
		}(i)
	}
	task(0)
	wg.Wait()
}

// wgScratch recycles the WaitGroups parallelKernel blocks on; a stack
// WaitGroup would escape through the task channel and cost an allocation
// per dispatch.
var wgScratch = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// parallelKernel splits [0, n) across the shared pool and runs the kernel on
// each chunk with the given operands, blocking until all chunks complete.
// Unlike Parallel it takes the kernel as a top-level function plus operands,
// so dispatch allocates nothing (no capturing closure); the calling
// goroutine runs the first chunk itself, and a single-chunk split never
// touches the pool.
//
//hot:path
func parallelKernel(n int, kern matKernel, dst, a, b *Mat) {
	poolOnce.Do(startPool)
	chunk := (n + poolSize - 1) / poolSize
	if useAVX512 {
		// Chunks hold whole 4-row blocks of mulAdd4AVX512, so only the
		// last one can leave rows to rowMulAdd.
		chunk = (chunk + 3) &^ 3
	}
	if chunk >= n {
		kern(dst, a, b, 0, n)
		return
	}
	wg := wgScratch.Get().(*sync.WaitGroup)
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		poolTasks <- chunkTask{kern: kern, dst: dst, a: a, b: b, lo: lo, hi: hi, wg: wg}
	}
	kern(dst, a, b, 0, chunk)
	wg.Wait()
	wgScratch.Put(wg)
}
