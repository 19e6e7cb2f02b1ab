package main

import (
	"fmt"
	"math/rand"

	"nonstopsql"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/nsqlclient"
	"nonstopsql/internal/record"
	"nonstopsql/internal/sql"
)

// read-tcp sizes. The table's leaf pages are several times the four
// buffer pools' readCacheSlots each (README.md gives the measured page
// count), so point lookups keep missing the cache.
const (
	readRows       = 40000
	readCacheSlots = 64
	scanWidth      = 2000 // keys per range aggregate
	scanShare      = 0.02
	readWarmOps    = 1500 // per client, during set-up
)

const (
	pointSQL = `SELECT id, bal, pad FROM acct WHERE id = ?`
	scanSQL  = `SELECT COUNT(*), SUM(bal) FROM acct WHERE id >= ? AND id < ?`
)

type readTCP struct {
	db     *nonstopsql.Database
	pool   *nsqlclient.Pool
	stmts  map[string]*nsqlclient.Stmt
	def    *fs.FileDef
	bal    []int64
	prefix []int64 // prefix[i] is the sum of bal[:i]
	cs     []*client
	p      *probe
}

func openReadTCP(cfg config, _ string) (workload, error) {
	db, err := nonstopsql.Open(serverConfig(readCacheSlots))
	if err != nil {
		return nil, err
	}
	w := &readTCP{db: db, stmts: make(map[string]*nsqlclient.Stmt)}
	if err := w.load(cfg.seed); err != nil {
		w.close()
		return nil, err
	}
	if err := w.connect(cfg.seed); err != nil {
		w.close()
		return nil, err
	}
	if err := warmUp(w, readWarmOps); err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

func (w *readTCP) load(seed int64) error {
	s := w.db.Session(0, 0)
	q := readRows / 4
	if _, err := s.Exec(fmt.Sprintf(`CREATE TABLE acct (id INT PRIMARY KEY, bal INT, pad VARCHAR(80))
		PARTITION ON ("$DATA1", "$DATA2" FROM %d, "$DATA3" FROM %d, "$DATA4" FROM %d)`, q, 2*q, 3*q)); err != nil {
		return err
	}
	ins, err := s.Prepare(`INSERT INTO acct VALUES (?, ?, ?)`)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	w.bal = make([]int64, readRows)
	w.prefix = make([]int64, readRows+1)
	for id := int64(0); id < readRows; id++ {
		w.bal[id] = rng.Int63n(100000)
		w.prefix[id+1] = w.prefix[id] + w.bal[id]
	}
	if err := loadRows(s, ins, readRows, func(id int64) []record.Value {
		return []record.Value{record.Int(id), record.Int(w.bal[id]), record.String(pad(id))}
	}); err != nil {
		return err
	}
	w.def, err = w.db.Catalog().Table("acct")
	return err
}

func (w *readTCP) connect(seed int64) error {
	pool, err := dial(w.db)
	if err != nil {
		return err
	}
	w.pool = pool
	w.p = &probe{
		cl:        w.db.Cluster(),
		primaries: w.db.Volumes(),
		pool:      pool,
		sqlServer: w.db.Cluster().Net.Server("$SQL"),
		plans:     w.db.Catalog().Plans(),
		keys:      readRows,
	}
	for i := 0; i < clients; i++ {
		c := newClient(i, seed)
		c.inproc = w.db.Cluster().Net.NewClient(msg.ProcessorID{Node: 0, CPU: 0})
		c.sess = w.db.Session(0, i)
		c.fs = w.db.FileSystem(0, i)
		if err := prepareAll(w.pool, w.stmts, c, []string{pointSQL, scanSQL}); err != nil {
			return err
		}
		w.cs = append(w.cs, c)
	}
	return nil
}

func (w *readTCP) clients() []*client { return w.cs }
func (w *readTCP) levels() []int      { return []int{lvTCP, lvServe, lvSQL, lvFS} }

// replay samples point lookups only: consecutive runs of one range
// aggregate differ by up to a third (asynchronous pre-fetch at the Disk
// Processes), far more than the layer differences a replay resolves.
func (w *readTCP) replay(o op) (float64, int) {
	if o.kind == opScan {
		return 0, 0
	}
	return 0.005, 5
}
func (w *readTCP) probe() *probe { return w.p }

func (w *readTCP) sizes() string {
	return fmt.Sprintf("acct %d rows in 4 partitions on %d blocks; buffer pools %d x %d slots; %d clients on %d TCP connections",
		readRows, w.p.blocks(), len(w.p.primaries), readCacheSlots, clients, tcpConns)
}

func (w *readTCP) next(c *client) op {
	if c.rng.Float64() < scanShare {
		return op{kind: opScan, key: c.rng.Int63n(readRows - scanWidth + 1)}
	}
	return op{kind: opPoint, key: c.rng.Int63n(readRows)}
}

func (w *readTCP) exec(c *client, lv int, o op, t *tracer, parent int) error {
	text, args := pointSQL, []record.Value{record.Int(o.key)}
	if o.kind == opScan {
		text, args = scanSQL, []record.Value{record.Int(o.key), record.Int(o.key + scanWidth)}
	}
	var res *sql.Result
	var err error
	switch lv {
	case lvTCP:
		id := t.begin(parent, "Stmt.Exec")
		res, err = w.stmts[text].Exec(args...)
		t.end(id)
	case lvServe:
		id := t.begin(parent, "nsqlclient.Execute")
		res, err = nsqlclient.Execute(c.inproc, c.handle[text], args...)
		t.end(id)
	case lvSQL:
		id := t.begin(parent, "Session.ExecPrepared")
		res, err = c.sess.ExecPrepared(c.prep[text], args...)
		t.end(id)
	case lvFS:
		res, err = w.execFS(c, o, t, parent)
	}
	if err != nil {
		return err
	}
	return w.check(o, res.Rows)
}

// execFS runs the op as the File System calls the plan makes: a browse
// read by primary key, or DP-side partial aggregation over the range.
func (w *readTCP) execFS(c *client, o op, t *tracer, parent int) (*sql.Result, error) {
	if o.kind == opPoint {
		call := startFS(t, w.p, parent, "FS.Read")
		row, err := c.fs.Read(nil, w.def, record.Int(o.key).AppendKey(nil), false)
		call.done()
		if err != nil {
			return nil, err
		}
		return &sql.Result{Rows: []record.Row{row}}, nil
	}
	rng := keys.Range{Low: record.Int(o.key).AppendKey(nil), High: record.Int(o.key + scanWidth).AppendKey(nil)}
	spec := &fsdp.AggSpec{Cols: []fsdp.AggCol{{Fn: fsdp.AggCount, Star: true}, {Fn: fsdp.AggSum, Col: 1}}}
	call := startFS(t, w.p, parent, "FS.AggTraced")
	groups, _, err := c.fs.AggTraced(nil, w.def, rng, nil, spec)
	call.done()
	if err != nil {
		return nil, err
	}
	g, ok := groups[""]
	if !ok || len(g.Partials) != 2 {
		return nil, wrong("range aggregate at %d returned %d groups", o.key, len(groups))
	}
	return &sql.Result{Rows: []record.Row{{record.Int(g.Partials[0].Count), record.Int(g.Partials[1].SumI)}}}, nil
}

// check compares a reply with the loaded values.
func (w *readTCP) check(o op, rows []record.Row) error {
	if o.kind == opScan {
		want := w.prefix[o.key+scanWidth] - w.prefix[o.key]
		if len(rows) != 1 || len(rows[0]) != 2 || rows[0][0].I != scanWidth || rows[0][1].I != want {
			return wrong("range [%d,%d): got %v, want count %d sum %d", o.key, o.key+scanWidth, rows, scanWidth, want)
		}
		return nil
	}
	if len(rows) != 1 || len(rows[0]) != 3 || rows[0][0].I != o.key || rows[0][1].I != w.bal[o.key] || rows[0][2].S != pad(o.key) {
		return wrong("point %d: got %v, want bal %d", o.key, rows, w.bal[o.key])
	}
	return nil
}

// audit re-reads the whole table's count and balance total.
func (w *readTCP) audit() error {
	res, err := w.db.Session(0, 0).Exec(`SELECT COUNT(*), SUM(bal) FROM acct`)
	if err != nil {
		return err
	}
	if r := res.Rows[0]; r[0].I != readRows || r[1].I != w.prefix[readRows] {
		return wrong("table holds %v rows summing to %v, want %d and %d", r[0], r[1], readRows, w.prefix[readRows])
	}
	return nil
}

func (w *readTCP) close() {
	if w.pool != nil {
		w.pool.Close()
	}
	w.db.Close()
}
