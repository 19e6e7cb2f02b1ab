package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Reconciliation bound: for every replayed op, the per-layer self times
// (negative differences between adjacent replays counted as zero) may
// exceed the top span by at most this share of it, by reconAbs, or by
// the op's own replay noise (the widest spread between the rounds of one
// entry point), whichever is largest. The excess is replay-to-replay
// noise: where a commit waits on a 10 ms timer, two runs of the same
// call differ by up to the timer period.
const (
	reconRel = 0.10
	reconAbs = 25 * time.Microsecond
)

// childSlack absorbs the gap between the monotonic clock the spans use
// and the wall clock the message layer stamps queue entry with.
const childSlack = 5 * time.Microsecond

// A span is one timed interval. Kind "call" wraps a call the benchmark
// made into a layer's public function; "replay" is the same op run
// again one entry point lower, its parent being the span of the entry
// point above; "counter" is the Disk Processes' busy time (service plus
// queue wait, from their counters) while the parent call ran alone, so
// only its length is measured and it is placed at the parent's start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// A tracer keeps spans in memory until the run ends. gate lets a
// replay run alone: closed-loop ops hold it shared, the ladder holds it
// exclusively, so counter deltas taken around a replayed call belong to
// that call.
type tracer struct {
	gate sync.RWMutex

	mu      sync.Mutex
	base    time.Time
	spans   []span
	ops     int64
	ladders []ladderRun
	replays int
	failed  int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// root opens the top span of a new op.
func (t *tracer) root(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.ops++
	id := t.appendLocked(span{Op: t.ops, Name: name, Kind: "call"})
	t.mu.Unlock()
	return id
}

// begin opens a span under parent (a call into a layer).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := t.appendLocked(span{Parent: parent, Op: t.spans[parent-1].Op, Name: name, Kind: "call"})
	t.mu.Unlock()
	return id
}

func (t *tracer) appendLocked(s span) int {
	s.ID = len(t.spans) + 1
	s.Start = int64(time.Since(t.base))
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// counter adds a counter-derived child of length d under parent.
func (t *tracer) counter(parent int, name string, d time.Duration) {
	t.mu.Lock()
	p := t.spans[parent-1]
	t.appendLocked(span{Parent: parent, Op: p.Op, Name: name, Kind: "counter"})
	s := &t.spans[len(t.spans)-1]
	s.Start = p.Start
	s.End = p.Start + int64(d)
	t.mu.Unlock()
}

// ladder replays o at each of the workload's entry points in turn, top
// first, in reps interleaved rounds so that drift (garbage collection,
// cache state) reaches every level alike. Each level's fastest run is
// the one its self time is computed from and the parent of the level
// below; the slower runs stay in the trace as unlinked replays. The
// caller holds the gate exclusively.
func (t *tracer) ladder(w workload, c *client, o op) error {
	_, reps := w.replay(o)
	levels := w.levels()
	t.mu.Lock()
	t.ops++
	opID := t.ops
	t.mu.Unlock()
	best := make([]int, len(levels))
	runs := make([][]int, len(levels))
	for r := 0; r < reps; r++ {
		for i, lv := range levels {
			kind := "replay"
			if i == 0 {
				kind = "call"
			}
			t.mu.Lock()
			id := t.appendLocked(span{Op: opID, Name: levelNames[lv], Kind: kind})
			t.mu.Unlock()
			err := w.exec(c, lv, o, t, id)
			t.end(id)
			t.replays++
			if err != nil {
				t.failed++
				return err
			}
			runs[i] = append(runs[i], id)
			if best[i] == 0 || t.spans[id-1].dur() < t.spans[best[i]-1].dur() {
				best[i] = id
			}
		}
	}
	t.mu.Lock()
	for i := 1; i < len(levels); i++ {
		for _, id := range runs[i] {
			t.spans[id-1].Parent = best[i-1]
		}
	}
	t.mu.Unlock()
	var noise time.Duration
	for _, ids := range runs {
		lo, hi := t.spans[ids[0]-1].dur(), t.spans[ids[0]-1].dur()
		for _, id := range ids {
			lo, hi = min(lo, t.spans[id-1].dur()), max(hi, t.spans[id-1].dur())
		}
		noise = max(noise, hi-lo)
	}
	t.ladders = append(t.ladders, ladderRun{best: best, noise: noise})
	return nil
}

// A ladderRun is one replayed op: the fastest round's span at each entry
// point, top first, and the widest spread between the rounds of one
// entry point.
type ladderRun struct {
	best  []int
	noise time.Duration
}

// An fsCall is the span of one File System call made while the ladder
// holds the gate, with the Disk Processes' busy time during the call as
// its counter child.
type fsCall struct {
	t    *tracer
	p    *probe
	id   int
	busy time.Duration
}

func startFS(t *tracer, p *probe, parent int, name string) fsCall {
	busy := p.dpBusy()
	return fsCall{t: t, p: p, id: t.begin(parent, name), busy: busy}
}

func (f fsCall) done() {
	f.t.end(f.id)
	f.t.counter(f.id, "dp", f.p.dpBusy()-f.busy)
}

// layerOf names the layer an entry point's self time belongs to: above
// the in-process "$SQL" conversation, the TCP pool is the wire layer.
func layerOf(level string) string {
	if level == levelNames[lvTCP] {
		return "wire"
	}
	return level
}

// selfTimes is one replayed op's breakdown. Layers above fs are the
// difference between adjacent replays; fs, tmf and dp come from the
// nested spans of the fs replay.
type selfTimes struct {
	root    time.Duration
	layers  map[string]time.Duration
	commits []time.Duration
	excess  time.Duration // sum of clamped self times minus root
}

// analyze checks every span against its children and breaks each
// replayed op down by layer.
func (t *tracer) analyze() ([]selfTimes, error) {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d %s never ended", s.ID, s.Name)
		}
		if s.Parent != 0 && s.Kind != "replay" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		var sum time.Duration
		for _, ch := range children[s.ID] {
			sum += ch.dur()
		}
		if sum > s.dur()+childSlack {
			return nil, fmt.Errorf("span reconciliation: children of span %d (%s, op %d) take %v, more than its %v", s.ID, s.Name, s.Op, sum, s.dur())
		}
	}
	var out []selfTimes
	for _, run := range t.ladders {
		ids := run.best
		st := selfTimes{root: t.spans[ids[0]-1].dur(), layers: make(map[string]time.Duration)}
		var sum time.Duration
		for i := 0; i+1 < len(ids); i++ {
			d := t.spans[ids[i]-1].dur() - t.spans[ids[i+1]-1].dur()
			if d < 0 {
				d = 0
			}
			st.layers[layerOf(t.spans[ids[i]-1].Name)] = d
			sum += d
		}
		fsSpan := t.spans[ids[len(ids)-1]-1]
		fsSelf := fsSpan.dur()
		for _, call := range children[fsSpan.ID] {
			fsSelf -= call.dur()
			var dp time.Duration
			for _, ch := range children[call.ID] {
				dp += ch.dur()
			}
			st.layers["dp"] += dp
			if call.Name == "FS.Commit" {
				st.layers["tmf"] += call.dur() - dp
				st.commits = append(st.commits, call.dur())
			} else {
				fsSelf += call.dur() - dp
			}
		}
		st.layers["fs"] = fsSelf
		sum += fsSelf + st.layers["tmf"] + st.layers["dp"]
		st.excess = sum - st.root
		if bound := max(time.Duration(reconRel*float64(st.root)), reconAbs, run.noise); st.excess > bound {
			var levels []time.Duration
			for _, id := range ids {
				levels = append(levels, t.spans[id-1].dur())
			}
			return nil, fmt.Errorf("span reconciliation: op %d layer self times %v sum to %v, root span %v (bound %v); entry points took %v", fsSpan.Op, st.layers, sum, st.root, bound, levels)
		}
		out = append(out, st)
	}
	return out, nil
}

// write saves the spans as JSON under <root>/.bench_build/traces.
func (t *tracer) write(cfg config) (string, error) {
	dir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.workload, cfg.seed, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// tracedRun measures the per-layer metrics: counters over an untraced
// first half of the window, spans over a traced second half, then the
// side probes for btree and the device floor.
func tracedRun(w workload, cfg config, window time.Duration) (*result, error) {
	p := w.probe()
	before := p.snapshot()
	u, err := measure(w, window/2, nil)
	if err != nil {
		return nil, err
	}
	after := p.snapshot()

	t := newTracer()
	tw, err := measure(w, window/2, t)
	if err != nil {
		return nil, err
	}
	if err := w.audit(); err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	ops, err := t.analyze()
	if err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("traced run replayed no ops")
	}
	path, err := t.write(cfg)
	if err != nil {
		return nil, err
	}

	m := layerMetrics(p, before, after, u)
	for _, layer := range []string{"wire", "serve", "sql", "fs"} {
		var xs []float64
		for _, o := range ops {
			xs = append(xs, us(o.layers[layer]))
		}
		m[layer+".self_us"] = metric{median(xs), "us", "wall-clock"}
	}
	var commits, excess []float64
	for _, o := range ops {
		for _, c := range o.commits {
			commits = append(commits, us(c))
		}
		excess = append(excess, 100*float64(o.excess)/float64(o.root))
	}
	m["tmf.commit_p50_us"] = metric{median(commits), "us", "wall-clock"}
	untraced := float64(u.ok) / u.elapsed.Seconds()
	traced := float64(tw.ok) / tw.elapsed.Seconds()
	m["trace.overhead_pct"] = metric{100 * (untraced - traced) / untraced, "%", "wall-clock"}
	getUS, allocs, err := btreeGet(cfg.seed, p.keys)
	if err != nil {
		return nil, err
	}
	m["btree.get_us"] = metric{getUS, "us", "wall-clock"}
	m["btree.get_allocs"] = metric{allocs, "allocs/op", "counted"}
	floor, err := fsyncFloor(cfg)
	if err != nil {
		return nil, err
	}
	m["disk.fsync_p50_us"] = metric{floor, "us", "wall-clock"}

	sort.Float64s(excess)
	fmt.Printf("# traced: %d ops replayed at %d entry points, spans in %s; reconciliation excess median %.1f%% max %.1f%% of root (bound %.0f%%, %v or the op's replay noise)\n",
		len(ops), len(w.levels()), path, median(excess), excess[len(excess)-1], 100*reconRel, reconAbs)
	u.logFailures("")
	tw.logFailures(" (traced)")
	return &result{
		Correct:   true,
		Attempted: u.attempted + tw.attempted + t.replays,
		Failed:    u.failed + tw.failed + t.failed,
		Metrics:   m,
	}, nil
}
