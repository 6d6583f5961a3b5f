package tensor

import (
	"runtime"
	"sync"
)

// The package keeps one persistent worker pool shared by every kernel.
// Spawning a fresh goroutine per matmul call — the seed implementation's
// strategy — costs a scheduler round-trip on every hot-path kernel; the
// pool pays that cost once at startup and then dispatches chunks over a
// channel. Coarse tasks that may block (data-parallel shards, Tape.Fork's
// children) run through RunTasks on fresh goroutines instead.
//
// Pool tasks must be leaves: a task may not block on other pool tasks.
// Kernels satisfy this by construction (a chunk is pure computation), which
// is what makes the shared pool deadlock-free even when many goroutines
// submit concurrently.

// chunkTask is one contiguous [lo, hi) row range of a matmul kernel. It
// ships as a top-level kernel function plus its three matrix operands
// (kern/dst/a/b) instead of a capturing closure: a closure would be a fresh
// heap allocation on every kernel dispatch, and the steady-state matmul
// budget is zero allocations (see TestMatMulKernelsAllocFree).
type chunkTask struct {
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
				t.kern(t.dst, t.a, t.b, t.lo, t.hi)
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

// RunTasks runs k independent tasks, blocking until all complete; task i
// receives its index. Task 0 runs on the caller and tasks 1..k-1 on fresh
// goroutines rather than pool workers, so a task may itself run pooled
// kernels, RunTasks or a concurrent Tape.Fork: pool workers never block
// waiting for other pool work. Used for coarse-grained fan-out: one task
// per minibatch shard, one per concurrent fork child.
//
// The caller yields once after the spawns. A new goroutine is readied on
// the caller's own P, where another P wakes too slowly to steal it, so
// without the yield it would mostly start only once task 0 is done and
// the caller blocks. Yielding puts the caller in the global run queue,
// which the woken P checks first: the spawned task starts on this thread
// and the caller resumes on the other (DESIGN §5.6).
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
	runtime.Gosched()
	task(0)
	wg.Wait()
}

// wgScratch recycles the WaitGroups parallelKernel blocks on; a stack
// WaitGroup would escape through the task channel and cost an allocation
// per dispatch.
var wgScratch = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// parallelKernel splits [0, n) across the shared pool and runs the kernel on
// each chunk with the given operands, blocking until all chunks complete.
// It takes the kernel as a top-level function plus operands, so dispatch
// allocates nothing (no capturing closure); the calling goroutine runs the
// first chunk itself, and a single-chunk split never touches the pool.
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
