package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"nonstopsql"
	"nonstopsql/internal/cluster"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/nsqlclient"
	"nonstopsql/internal/record"
	"nonstopsql/internal/sql"
	"nonstopsql/internal/tmf"
)

// DebitCredit sizes: 10 tellers per branch.
const (
	dcAccounts = 10000
	dcTellers  = 100
	dcBranches = 10
)

// The three DebitCredit workloads.
const (
	dcTCP        = iota // write-tcp: autocommit statements over TCP
	dcDurable           // txn-durable: BEGIN … COMMIT on file volumes
	dcReplicated        // txn-replicated: txn-durable plus in-process backups
)

// Statement i updates balance table i (account, teller, branch); the
// last records the history row.
var dcSQL = [...]string{
	`UPDATE account SET bal = bal + ? WHERE id = ?`,
	`UPDATE teller SET bal = bal + ? WHERE id = ?`,
	`UPDATE branch SET bal = bal + ? WHERE id = ?`,
	`INSERT INTO history VALUES (?, ?, ?, ?, ?)`,
}

var dcTables = [...]string{"account", "teller", "branch", "history"}

// Per-workload warm-up ops per client and replay sampling rates, sized
// so warm-up and replays each take a fraction of a second.
var (
	dcWarmOps = [...]int{dcTCP: 5, dcDurable: 100, dcReplicated: 5}
	dcSample  = [...]float64{dcTCP: 0.02, dcDurable: 0.003, dcReplicated: 0.03}
	dcReps    = [...]int{dcTCP: 2, dcDurable: 3, dcReplicated: 3}
)

type debitCredit struct {
	mode  int
	db    *nonstopsql.Database // write-tcp
	cl    *cluster.Cluster
	cat   *sql.Catalog
	dir   string // data directory of the file volumes, txn-* only
	pool  *nsqlclient.Pool
	stmts map[string]*nsqlclient.Stmt
	defs  [4]*fs.FileDef

	initial [3]int64        // balance totals after loading
	acked   [3]atomic.Int64 // acknowledged deltas, per balance table
	history atomic.Int64    // acknowledged history inserts
	nextHID atomic.Int64

	cs []*client
	p  *probe
}

func openDC(mode int) func(config, string) (workload, error) {
	return func(cfg config, tag string) (workload, error) {
		w := &debitCredit{mode: mode, stmts: make(map[string]*nsqlclient.Stmt)}
		if err := w.open(cfg, tag); err != nil {
			w.close()
			return nil, err
		}
		return w, nil
	}
}

func (w *debitCredit) open(cfg config, tag string) error {
	var vols []string
	if w.mode == dcTCP {
		db, err := nonstopsql.Open(serverConfig(0))
		if err != nil {
			return err
		}
		w.db, w.cl, w.cat, vols = db, db.Cluster(), db.Catalog(), db.Volumes()
	} else {
		dir, err := scratchDir(cfg, tag)
		if err != nil {
			return err
		}
		w.dir = dir
		opts := cluster.Options{DataDir: dir, Prefetch: true, WriteBehind: true}
		if w.mode == dcReplicated {
			opts.Nodes, opts.Replication = 2, true
		}
		if w.cl, err = cluster.New(opts); err != nil {
			return err
		}
		for v := 0; v < 4; v++ {
			name := fmt.Sprintf("$DATA%d", v+1)
			if _, err := w.cl.AddVolume(0, v, name); err != nil {
				return err
			}
			vols = append(vols, name)
		}
		w.cat = sql.NewCatalog(vols)
	}
	if err := w.load(cfg.seed); err != nil {
		return err
	}
	w.p = &probe{cl: w.cl, primaries: vols, plans: w.cat.Plans(), keys: dcAccounts}
	if w.mode == dcTCP {
		pool, err := dial(w.db)
		if err != nil {
			return err
		}
		w.pool, w.p.pool, w.p.sqlServer = pool, pool, w.cl.Net.Server("$SQL")
	}
	texts := dcSQL[:]
	if w.mode != dcTCP {
		texts = append([]string{"BEGIN", "COMMIT"}, texts...)
	}
	for i := 0; i < clients; i++ {
		c := newClient(i, cfg.seed)
		c.fs = w.cl.NewFS(0, i)
		c.sess = sql.NewSession(w.cat, c.fs)
		if w.pool != nil {
			c.inproc = w.cl.Net.NewClient(msg.ProcessorID{Node: 0, CPU: 0})
		}
		if err := prepareAll(w.pool, w.stmts, c, texts); err != nil {
			return err
		}
		w.cs = append(w.cs, c)
	}
	if err := warmUp(w, dcWarmOps[w.mode]); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// load creates the four tables, one per data volume, so a transaction
// has four participants, and fills the balance tables.
func (w *debitCredit) load(seed int64) error {
	s := sql.NewSession(w.cat, w.cl.NewFS(0, 0))
	for i, ddl := range []string{
		`CREATE TABLE account (id INT PRIMARY KEY, bal INT, pad VARCHAR(80)) PARTITION ON ("$DATA1")`,
		`CREATE TABLE teller (id INT PRIMARY KEY, bal INT, pad VARCHAR(80)) PARTITION ON ("$DATA2")`,
		`CREATE TABLE branch (id INT PRIMARY KEY, bal INT, pad VARCHAR(80)) PARTITION ON ("$DATA3")`,
		`CREATE TABLE history (id INT PRIMARY KEY, account INT, teller INT, branch INT, delta INT) PARTITION ON ("$DATA4")`,
	} {
		if _, err := s.Exec(ddl); err != nil {
			return err
		}
		var err error
		if w.defs[i], err = w.cat.Table(dcTables[i]); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i, n := range []int64{dcAccounts, dcTellers, dcBranches} {
		ins, err := s.Prepare(fmt.Sprintf(`INSERT INTO %s VALUES (?, ?, ?)`, dcTables[i]))
		if err != nil {
			return err
		}
		bal := make([]int64, n)
		for id := range bal {
			bal[id] = rng.Int63n(100000)
			w.initial[i] += bal[id]
		}
		if err := loadRows(s, ins, n, func(id int64) []record.Value {
			return []record.Value{record.Int(id), record.Int(bal[id]), record.String(pad(id))}
		}); err != nil {
			return err
		}
	}
	return nil
}

func (w *debitCredit) clients() []*client       { return w.cs }
func (w *debitCredit) replay(op) (float64, int) { return dcSample[w.mode], dcReps[w.mode] }
func (w *debitCredit) probe() *probe            { return w.p }

func (w *debitCredit) levels() []int {
	if w.mode == dcTCP {
		return []int{lvTCP, lvServe, lvSQL, lvFS}
	}
	return []int{lvSQL, lvFS}
}

func (w *debitCredit) sizes() string {
	conns := "in-process sessions"
	if w.pool != nil {
		conns = fmt.Sprintf("%d TCP connections", tcpConns)
	}
	return fmt.Sprintf("account/teller/branch %d/%d/%d rows on %d blocks; default buffer pools (%d x 1024 slots); %d clients on %s",
		dcAccounts, dcTellers, dcBranches, w.p.blocks(), len(w.p.primaries), clients, conns)
}

func (w *debitCredit) next(c *client) op {
	teller := c.rng.Int63n(dcTellers)
	return op{
		kind:   opTxn,
		key:    c.rng.Int63n(dcAccounts),
		teller: teller,
		branch: teller / (dcTellers / dcBranches),
		delta:  c.rng.Int63n(1999) - 999,
	}
}

// args is statement i's parameter vector; hid is the history key.
func (o op) args(i int, hid int64) []record.Value {
	switch i {
	case 0:
		return []record.Value{record.Int(o.delta), record.Int(o.key)}
	case 1:
		return []record.Value{record.Int(o.delta), record.Int(o.teller)}
	case 2:
		return []record.Value{record.Int(o.delta), record.Int(o.branch)}
	}
	return []record.Value{record.Int(hid), record.Int(o.key), record.Int(o.teller), record.Int(o.branch), record.Int(o.delta)}
}

// ack credits statement i's effect as acknowledged.
func (w *debitCredit) ack(i int, o op) {
	if i < 3 {
		w.acked[i].Add(o.delta)
	} else {
		w.history.Add(1)
	}
}

func (w *debitCredit) exec(c *client, lv int, o op, t *tracer, parent int) error {
	if lv == lvFS {
		return w.execFS(c, o, t, parent)
	}
	inTx := w.mode != dcTCP
	if inTx {
		if err := w.control(c, "BEGIN", t, parent); err != nil {
			return err
		}
	}
	for i, text := range dcSQL {
		var hid int64
		if i == 3 {
			hid = w.nextHID.Add(1)
		}
		args := o.args(i, hid)
		var res *sql.Result
		var err error
		t0 := time.Now()
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
		}
		lat := time.Since(t0)
		if err == nil && res.Affected != 1 {
			err = wrong("%s with %v changed %d rows", dcTables[i], args, res.Affected)
		}
		if err == nil && !inTx {
			c.timeStmt(lat)
		}
		if err != nil {
			if inTx {
				_, _ = c.sess.Exec("ROLLBACK")
			}
			return err
		}
		if !inTx {
			w.ack(i, o)
		}
	}
	if inTx {
		if err := w.control(c, "COMMIT", t, parent); err != nil {
			return err
		}
		for i := range dcSQL {
			w.ack(i, o)
		}
	}
	return nil
}

// control runs BEGIN or COMMIT on the client's session; a COMMIT's
// latency is the transaction workloads' statement latency.
func (w *debitCredit) control(c *client, text string, t *tracer, parent int) error {
	t0 := time.Now()
	id := t.begin(parent, "Session.ExecPrepared")
	_, err := c.sess.ExecPrepared(c.prep[text])
	t.end(id)
	if err == nil && text == "COMMIT" {
		c.timeStmt(time.Since(t0))
	}
	if err != nil && c.sess.InTx() {
		_, _ = c.sess.Exec("ROLLBACK")
	}
	return err
}

// execFS runs the transaction as File System calls: the balance
// updates as update expressions shipped to the Disk Process, the
// history row as an insert, and the commit through tmf. write-tcp
// commits after every call, as its autocommit statements do.
func (w *debitCredit) execFS(c *client, o op, t *tracer, parent int) error {
	perStmt := w.mode == dcTCP
	var tx *tmf.Tx
	commit := func() error {
		call := startFS(t, w.p, parent, "FS.Commit")
		err := c.fs.Commit(tx)
		call.done()
		return err
	}
	for i := range dcSQL {
		if tx == nil {
			tx = c.fs.Begin()
		}
		var err error
		if i < 3 {
			key := o.args(i, 0)[1].AppendKey(nil)
			add := []expr.Assignment{{Field: 1, E: expr.Bin(expr.OpAdd, expr.F(1, "BAL"), expr.CInt(o.delta))}}
			call := startFS(t, w.p, parent, "FS.UpdateFields")
			err = c.fs.UpdateFields(tx, w.defs[i], key, add)
			call.done()
		} else {
			call := startFS(t, w.p, parent, "FS.Insert")
			err = c.fs.Insert(tx, w.defs[i], record.Row(o.args(i, w.nextHID.Add(1))))
			call.done()
		}
		if err == nil && perStmt {
			if err = commit(); err == nil {
				w.ack(i, o)
			}
			tx = nil
		}
		if err != nil {
			if tx != nil {
				_ = c.fs.Abort(tx)
			}
			return err
		}
	}
	if !perStmt {
		if err := commit(); err != nil {
			return err
		}
		for i := range dcSQL {
			w.ack(i, o)
		}
	}
	return nil
}

// audit checks that each balance table's total moved by exactly the
// acknowledged deltas and that history holds one row per acknowledged
// insert, replays included.
func (w *debitCredit) audit() error {
	s := sql.NewSession(w.cat, w.cl.NewFS(0, 0))
	for i := 0; i < 3; i++ {
		res, err := s.Exec(fmt.Sprintf(`SELECT SUM(bal) FROM %s`, dcTables[i]))
		if err != nil {
			return err
		}
		if got, want := res.Rows[0][0].I, w.initial[i]+w.acked[i].Load(); got != want {
			return wrong("SUM(%s.bal) = %d, want %d", dcTables[i], got, want)
		}
	}
	res, err := s.Exec(`SELECT COUNT(*) FROM history`)
	if err != nil {
		return err
	}
	if got, want := res.Rows[0][0].I, w.history.Load(); got != want {
		return wrong("history holds %d rows, want %d", got, want)
	}
	return nil
}

func (w *debitCredit) close() {
	if w.pool != nil {
		w.pool.Close()
	}
	if w.db != nil {
		w.db.Close()
	} else if w.cl != nil {
		w.cl.Close()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

var workloads = map[string]func(config, string) (workload, error){
	"read-tcp":       openReadTCP,
	"write-tcp":      openDC(dcTCP),
	"txn-durable":    openDC(dcDurable),
	"txn-replicated": openDC(dcReplicated),
}
