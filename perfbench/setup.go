package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"nonstopsql"
	"nonstopsql/internal/nsqlclient"
	"nonstopsql/internal/record"
	"nonstopsql/internal/sql"
)

const (
	clients   = 2    // closed-loop goroutines per workload
	tcpConns  = 2    // connections in the TCP clients' shared pool
	loadBatch = 1000 // rows per loading transaction
)

// serverConfig is the Config nsqld builds from its default flags, on
// simulated volumes, listening on an ephemeral loopback port.
func serverConfig(cacheSlots int) nonstopsql.Config {
	return nonstopsql.Config{
		Nodes:            1,
		VolumesPerNode:   4,
		Listen:           "127.0.0.1:0",
		ServeWorkers:     8,
		WireReplyTimeout: 30 * time.Second,
		CacheSlotsPerDP:  cacheSlots,
	}
}

// dial opens the pool every client of a TCP workload shares.
func dial(db *nonstopsql.Database) (*nsqlclient.Pool, error) {
	return nsqlclient.Dial(db.Addr(), nsqlclient.Options{Conns: tcpConns, ReplyTimeout: 30 * time.Second})
}

func pad(id int64) string { return strings.Repeat(fmt.Sprintf("%08d", id), 8) }

// loadRows inserts rows 0..n-1 in transactions of loadBatch rows.
func loadRows(s *sql.Session, ins *sql.Prepared, n int64, row func(int64) []record.Value) error {
	for start := int64(0); start < n; start += loadBatch {
		if _, err := s.Exec("BEGIN"); err != nil {
			return err
		}
		for id := start; id < start+loadBatch && id < n; id++ {
			if _, err := s.ExecPrepared(ins, row(id)...); err != nil {
				_, _ = s.Exec("ROLLBACK")
				return fmt.Errorf("load row %d: %w", id, err)
			}
		}
		if _, err := s.Exec("COMMIT"); err != nil {
			return err
		}
	}
	return nil
}

// prepareAll prepares each statement at every entry point a client
// uses: over TCP (shared), in process through "$SQL", and on the
// client's own session.
func prepareAll(pool *nsqlclient.Pool, stmts map[string]*nsqlclient.Stmt, c *client, texts []string) error {
	for _, text := range texts {
		var err error
		if pool != nil {
			if stmts[text], err = pool.Prepare(text); err != nil {
				return err
			}
			if c.handle[text], _, err = nsqlclient.Prepare(c.inproc, text); err != nil {
				return err
			}
		}
		if c.prep[text], err = c.sess.Prepare(text); err != nil {
			return err
		}
	}
	return nil
}

// warmUp runs n ops per client concurrently at the top entry point,
// untimed, so connections, handles, plans and caches are in steady
// state before measuring.
func warmUp(w workload, n int) error {
	var wg sync.WaitGroup
	errs := make([]error, len(w.clients()))
	for i, c := range w.clients() {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for k := 0; k < n && errs[i] == nil; k++ {
				errs[i] = w.exec(c, w.levels()[0], w.next(c), nil, 0)
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
