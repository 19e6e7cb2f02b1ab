package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"nonstopsql/internal/fs"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/sql"
)

// Entry points an op can be executed at, top to bottom. A workload's
// closed loop runs at its top level; the traced run replays a sample of
// ops at every level below it as well.
const (
	lvTCP   = iota // nsqlclient.Stmt.Exec over the TCP pool
	lvServe        // nsqlclient.Execute over an in-process msg.Client to "$SQL"
	lvSQL          // sql.Session.ExecPrepared
	lvFS           // fs.FS record calls
)

var levelNames = [...]string{lvTCP: "nsqlclient", lvServe: "serve", lvSQL: "sql", lvFS: "fs"}

const (
	opPoint = iota // primary-key lookup
	opScan         // COUNT(*), SUM(bal) over a key range
	opTxn          // DebitCredit transaction
)

// An op is one generated unit of work.
type op struct {
	kind   int
	key    int64 // point key, scan low key, or account id
	teller int64
	branch int64
	delta  int64
}

// A workload is one set-up database plus its clients and generator.
type workload interface {
	clients() []*client
	// levels lists the entry points of the ladder, top (closed-loop) first.
	levels() []int
	next(c *client) op
	// exec runs o once at level lv. Spans go to t under parent when t
	// is non-nil; statement latencies go to c when c.timing is set.
	exec(c *client, lv int, o op, t *tracer, parent int) error
	// replay gives the share of ops the traced run replays and how many
	// times each entry point runs per replayed op.
	replay(o op) (rate float64, reps int)
	probe() *probe
	// sizes describes the data against the buffer pools, for the log.
	sizes() string
	// audit checks the database against what the clients were told.
	audit() error
	close()
}

// A client is one closed-loop goroutine and the handles it uses
// at each entry point.
type client struct {
	id     int
	rng    *rand.Rand // op stream
	pick   *rand.Rand // trace sampling, separate so the op stream is the same traced or not
	timing bool

	// Latencies go into fixed histograms, so recording neither
	// allocates nor grows the heap the database's collector works on.
	stmt, multi        hist
	attempted, ok, bad int

	inproc *msg.Client
	sess   *sql.Session
	fs     *fs.FS
	prep   map[string]*sql.Prepared
	handle map[string]uint64
}

func newClient(id int, seed int64) *client {
	return &client{
		id:     id,
		rng:    rand.New(rand.NewSource(seed*7919 + int64(id))),
		pick:   rand.New(rand.NewSource(seed*104729 + int64(id) + 1)),
		prep:   make(map[string]*sql.Prepared),
		handle: make(map[string]uint64),
	}
}

// timeStmt records one statement latency of the workload's statement
// class (README.md).
func (c *client) timeStmt(d time.Duration) {
	if c.timing {
		c.stmt.add(d)
	}
}

// A mismatch is a wrong answer from the database: it fails the run.
type mismatch struct{ msg string }

func (m *mismatch) Error() string { return "wrong result: " + m.msg }

func wrong(format string, args ...any) error { return &mismatch{fmt.Sprintf(format, args...)} }

// A window is one closed-loop measurement.
type window struct {
	elapsed               time.Duration
	attempted, ok, failed int
	stmt, multi           hist
	errs                  map[string]int // failure messages, for the log
}

func (m *window) result() *result {
	return &result{Correct: true, Attempted: m.attempted, Failed: m.failed}
}

// logFailures prints each distinct failure message with its count.
func (m *window) logFailures(label string) {
	for msg, n := range m.errs {
		fmt.Printf("# failed x%d%s: %s\n", n, label, msg)
	}
}

// measure runs every client in a closed loop for d. With a tracer, each
// op is wrapped in spans and a seeded sample is replayed down the
// ladder with the other clients held off.
func measure(w workload, d time.Duration, t *tracer) (*window, error) {
	cs := w.clients()
	for _, c := range cs {
		c.stmt.reset()
		c.multi.reset()
		c.attempted, c.ok, c.bad = 0, 0, 0
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		errs     = make(map[string]int)
	)
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				err := step(w, c, t)
				if err == nil {
					continue
				}
				var mm *mismatch
				mu.Lock()
				if errors.As(err, &mm) {
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				errs[err.Error()]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	m := &window{elapsed: time.Since(start), errs: errs}
	for _, c := range cs {
		m.attempted += c.attempted
		m.ok += c.ok
		m.failed += c.bad
		m.stmt.merge(&c.stmt)
		m.multi.merge(&c.multi)
	}
	return m, nil
}

// step runs one op at the top level and, when tracing, maybe replays it.
// It returns the op's error; a failed op is counted, not retried.
func step(w workload, c *client, t *tracer) error {
	o := w.next(c)
	top := w.levels()[0]
	c.attempted++
	c.timing = true
	if t != nil {
		t.gate.RLock()
	}
	t0 := time.Now()
	root := t.root(levelNames[top])
	err := w.exec(c, top, o, t, root)
	t.end(root)
	lat := time.Since(t0)
	if t != nil {
		t.gate.RUnlock()
	}
	c.timing = false
	if err != nil {
		c.bad++
		return err
	}
	c.ok++
	if o.kind != opPoint {
		c.multi.add(lat)
	} else {
		c.stmt.add(lat)
	}
	if rate, _ := w.replay(o); t != nil && c.pick.Float64() < rate {
		t.gate.Lock()
		err = t.ladder(w, c, o)
		t.gate.Unlock()
	}
	return err
}

// A hist is a log-linear latency histogram: bucket i holds latencies in
// [histMin·histGrowth^i, histMin·histGrowth^(i+1)), so any quantile is
// exact to within 1 %.
type hist struct {
	counts []uint32
	n      int
}

const (
	histMin     = float64(time.Microsecond)
	histGrowth  = 1.01
	histBuckets = 1900 // 1 µs to about 160 s
)

var logGrowth = math.Log(histGrowth)

func (h *hist) add(d time.Duration) {
	if h.counts == nil {
		h.counts = make([]uint32, histBuckets)
	}
	i := 0
	if f := float64(d); f > histMin {
		i = min(int(math.Log(f/histMin)/logGrowth), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) reset() {
	clear(h.counts)
	h.n = 0
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint32, histBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile, interpolating geometrically inside
// the bucket that holds it, or 0 for an empty histogram.
func (h *hist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			frac := (rank - cum + 0.5) / float64(c)
			return time.Duration(histMin * math.Pow(histGrowth, float64(i)+frac))
		}
		cum += float64(c)
	}
	return time.Duration(histMin * math.Pow(histGrowth, histBuckets))
}

// band is the mean of the latencies ranked between the lo and the hi
// quantile. The DebitCredit latencies are multi-modal (lock waits,
// timer waits, the other session's commit work), and a single
// percentile that falls between two modes jumps from run to run as
// their shares drift by a few per cent; a band mean moves only in
// proportion. Cutting off the top 1 % keeps the rarest stalls of the
// shared host out of the tail.
func (h *hist) band(lo, hi float64) time.Duration {
	lo, hi = lo*float64(h.n), hi*float64(h.n)
	var sum, weight, cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if w := math.Min(cum+float64(c), hi) - math.Max(cum, lo); w > 0 {
			sum += w * histMin * math.Pow(histGrowth, float64(i)+0.5)
			weight += w
		}
		cum += float64(c)
	}
	if weight == 0 {
		return 0
	}
	return time.Duration(sum / weight)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / 1000 }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
