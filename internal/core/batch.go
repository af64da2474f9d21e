package core

import (
	"context"
	"runtime"
	"sync"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/whatif"
)

// BuildFunc constructs one plan cache for an analysed query using the given
// what-if session (core.Build, core.BuildPrecise, and inum.Build all fit).
type BuildFunc func(*optimizer.Analysis, *whatif.Session) (*inum.Cache, error)

// Fan runs job(i) for every i in [0, n) across a bounded worker pool.
// Each worker calls newWorker once and applies the returned closure to the
// indexes it pulls, so worker-local state (a what-if session, a scratch
// buffer) is built exactly once per worker. Jobs write their results into
// caller-owned slices at their own index, which keeps output deterministic
// regardless of scheduling. workers <= 0 means GOMAXPROCS; workers == 1
// degenerates to one worker goroutine processing jobs in input order.
func Fan(n, workers int, newWorker func() func(i int)) {
	FanCtx(context.Background(), n, workers, newWorker)
}

// FanCtx is Fan with cancellation: once ctx is done no further jobs are
// dispatched, in-flight jobs finish, and ctx.Err() is returned (nil when
// every job was dispatched first), so a cancelled caller stops burning
// workers on jobs nobody will read. Callers must treat their result
// slices as incomplete whenever the returned error is non-nil: indexes
// past the cancellation point were never evaluated.
func FanCtx(ctx context.Context, n, workers int, newWorker func() func(i int)) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job := newWorker()
			for i := range jobs {
				job(i)
			}
		}()
	}
	var err error
dispatch:
	for i := 0; i < n; i++ {
		// Check cancellation first: a plain two-case select picks
		// uniformly among ready cases, which would keep dispatching
		// roughly half the remaining jobs after the context died.
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break dispatch
		default:
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return err
}

// BuildAllWith fills one plan cache per analysis across a bounded worker
// pool, using fn as the constructor. Each worker owns a private what-if
// session (sessions are not safe for concurrent use), and results are
// merged back in input order, so the returned slice is deterministic
// regardless of scheduling: caches[i] is the cache for analyses[i].
//
// workers <= 0 means GOMAXPROCS; workers == 1 degenerates to the serial
// construction. The first error, in input order, aborts the batch.
func BuildAllWith(analyses []*optimizer.Analysis, cat *catalog.Catalog, workers int, fn BuildFunc) ([]*inum.Cache, error) {
	caches := make([]*inum.Cache, len(analyses))
	errs := make([]error, len(analyses))
	Fan(len(analyses), workers, func() func(int) {
		ws := whatif.NewSession(cat)
		return func(i int) {
			caches[i], errs[i] = fn(analyses[i], ws)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return caches, nil
}

// BuildAll fills one PINUM plan cache per analysis across a bounded worker
// pool (see BuildAllWith for the pool semantics).
func BuildAll(analyses []*optimizer.Analysis, cat *catalog.Catalog, workers int, precise bool) ([]*inum.Cache, error) {
	fn := Build
	if precise {
		fn = BuildPrecise
	}
	return BuildAllWith(analyses, cat, workers, fn)
}

// BuildAllSlim fills one slim PINUM plan cache per analysis across a
// bounded worker pool — the batch construction the snapshot store and the
// serving layer start from.
func BuildAllSlim(analyses []*optimizer.Analysis, cat *catalog.Catalog, workers int) ([]*inum.Cache, error) {
	return BuildAllWith(analyses, cat, workers, BuildSlim)
}
