package main

// Open-loop load generation. One dispatcher sleeps until each request's
// scheduled send time and hands it to a fixed pool of connections (at
// most nproc); requests never wait for earlier answers before becoming
// due, so a stalled server builds a client-side queue whose wait shows
// up in latency. Latency runs from the scheduled time, not the send.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/pinumdb/pinum/internal/serve"
)

// outcome is one request's result.
type outcome struct {
	status  int
	body    []byte
	err     error
	latency time.Duration // completion − scheduled send time
	late    time.Duration // dispatch − scheduled send time (generator lag)
}

func (o *outcome) ok() bool { return o.err == nil && o.status >= 200 && o.status < 300 }

// runOpenLoop sends the schedule against base over conns connections
// and returns one outcome per request, in schedule order. With trace set
// every request carries an X-Pinum-Trace header. completed counts the
// 2xx answers as they arrive.
func runOpenLoop(base string, schedule []request, conns int, trace bool, completed *atomic.Int64) []outcome {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}

	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, len(schedule))
	out := make([]outcome, len(schedule))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r := &schedule[j.i]
				o := &out[j.i]
				req, err := http.NewRequest(http.MethodPost, base+r.path, bytes.NewReader(r.body))
				if err != nil {
					o.err = err
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				if r.tenant != "" {
					req.Header.Set(serve.TenantHeader, r.tenant)
				}
				if trace {
					req.Header.Set(serve.TraceHeader, fmt.Sprintf("bench-%d", j.i))
				}
				resp, err := client.Do(req)
				if err != nil {
					o.err = err
					o.latency = time.Since(j.due)
					continue
				}
				o.body, o.err = io.ReadAll(resp.Body)
				resp.Body.Close()
				o.status = resp.StatusCode
				o.latency = time.Since(j.due)
				if o.ok() {
					completed.Add(1)
				}
			}
		}()
	}

	// The dispatcher sleeps in nanosleep(2) on its own OS thread: the
	// runtime timer wakes up to a millisecond late on Linux, which would
	// show up as generator lateness in every request's latency.
	dispatched := make(chan struct{})
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		start := time.Now().Add(5 * time.Millisecond)
		for i := range schedule {
			due := start.Add(schedule[i].at)
			if d := time.Until(due); d > 0 {
				ts := syscall.NsecToTimespec(d.Nanoseconds())
				_ = syscall.Nanosleep(&ts, nil)
			}
			out[i].late = time.Since(due)
			jobs <- job{i: i, due: due}
		}
		close(jobs)
		close(dispatched)
	}()
	<-dispatched
	wg.Wait()
	return out
}
