package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"nonstopsql/internal/btree"
	"nonstopsql/internal/cache"
	"nonstopsql/internal/cluster"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/disk/filevol"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/lock"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/nsqlclient"
	"nonstopsql/internal/obs"
	"nonstopsql/internal/record"
	"nonstopsql/internal/sql"
	"nonstopsql/internal/wal"
)

// A probe reads the program's public Stats functions for one workload.
type probe struct {
	cl        *cluster.Cluster
	primaries []string         // data volumes; their "#B" backups when replicated
	pool      *nsqlclient.Pool // nil without TCP
	sqlServer *msg.Server      // the "$SQL" endpoint, nil without TCP
	plans     *sql.PlanCache
	keys      int64 // rows in the workload's largest table (btree side probe)
}

// dpSum adds up the Disk Process counters the metrics use.
type dpSum struct {
	serviceOps, serviceNanos, queueOps, queueNanos uint64
	scanned, returned, setRequests, redrives       uint64
	latchWaits                                     uint64
	hits, misses, keyedHits, keyedMisses           uint64
	walStalls, shardWaitNanos, evictions           uint64
}

type snapshot struct {
	wire      obs.WireStats
	wireLat   obs.Snapshot
	queueWait obs.Snapshot
	plans     sql.PlanCacheStats
	net       msg.Stats
	local     obs.Snapshot
	bus       obs.Snapshot
	dp        dpSum
	locks     lock.Stats
	trail     [2]wal.Stats // node 0, and node 1 (the backups' trail) when replicated
	disk      disk.Stats   // every volume, audit volumes included
	auditVol  disk.Stats   // node 0's audit volume
	repl      cluster.ReplicationStats
	cpu       time.Duration
	mallocs   uint64
	allocated uint64
	gcs       uint32
}

// dpBusy is the primaries' total service plus queue-wait time. Read
// around a call that runs alone, its change is the call's Disk Process
// time.
func (p *probe) dpBusy() time.Duration {
	var n uint64
	for _, name := range p.primaries {
		s := p.cl.DP(name).Stats()
		n += s.ServiceNanos + s.QueueWaitNanos
	}
	return time.Duration(n)
}

// blocks is the number of blocks allocated on the primary data volumes.
func (p *probe) blocks() int {
	n := 0
	for _, name := range p.primaries {
		n += p.cl.DP(name).Volume().Size()
	}
	return n
}

func (p *probe) snapshot() snapshot {
	var s snapshot
	if p.pool != nil {
		s.wire = p.pool.Stats()
		s.wireLat = p.pool.Latency()
	}
	if p.sqlServer != nil {
		s.queueWait = p.sqlServer.QueueWaitLatency()
	}
	s.plans = p.plans.Stats()
	s.net = p.cl.Net.Stats()
	s.local = p.cl.Net.Latency(msg.DistLocal)
	s.bus = p.cl.Net.Latency(msg.DistBus)
	for _, name := range p.primaries {
		d := p.cl.DP(name)
		st := d.Stats()
		s.dp.serviceOps += st.ServiceOps
		s.dp.serviceNanos += st.ServiceNanos
		s.dp.queueOps += st.QueueWaitOps
		s.dp.queueNanos += st.QueueWaitNanos
		s.dp.scanned += st.RowsScanned
		s.dp.returned += st.RowsReturned
		s.dp.setRequests += st.SetRequests
		s.dp.redrives += st.Redrives
		s.dp.latchWaits += st.LatchWaits
		s.dp.hits += st.CacheHits
		s.dp.misses += st.CacheMisses
		s.dp.keyedHits += st.CacheKeyedHits
		s.dp.keyedMisses += st.CacheKeyedMisses
		s.dp.walStalls += st.CacheWALStalls
		s.dp.shardWaitNanos += st.CacheShardWaitNanos
		s.dp.evictions += d.Pool().Stats().Evictions
		ls := d.Locks().Stats()
		s.locks.Waits += ls.Waits
		s.locks.Timeouts += ls.Timeouts
		s.locks.Deadlocks += ls.Deadlocks
		s.disk.Add(d.VolumeStats())
		if b := p.cl.DP(name + fsdp.BackupSuffix); b != nil {
			s.disk.Add(b.VolumeStats())
			r, err := p.cl.ReplicationStats(name)
			if err == nil {
				s.repl.ShippedBatches += r.ShippedBatches
				s.repl.ShippedBytes += r.ShippedBytes
				s.repl.DegradedAcks += r.DegradedAcks
			}
		}
	}
	for i, n := range p.cl.Nodes {
		if i < len(s.trail) {
			s.trail[i] = n.Trail.Stats()
		}
		s.disk.Add(n.AuditVol.Stats())
	}
	s.auditVol = p.cl.Nodes[0].AuditVol.Stats()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocated, s.gcs = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	return s
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func p50us(after, before obs.Snapshot) float64 {
	after.Sub(before)
	return us(after.Quantile(0.50))
}

// layerMetrics turns the counter deltas of the untraced window u into
// the per-layer metrics that come from counters. An op is one statement
// on read-tcp and one DebitCredit transaction elsewhere.
func layerMetrics(p *probe, a, b snapshot, u *window) map[string]metric {
	ops := float64(u.ok)
	wall := func(v float64, unit string) metric { return metric{v, unit, "wall-clock"} }
	count := func(v float64, unit string) metric { return metric{v, unit, "counted"} }
	d := func(after, before uint64) float64 { return float64(after - before) }
	trail, btrail := b.trail[0], b.trail[1]
	atrail, abtrail := a.trail[0], a.trail[1]
	flushes := d(trail.Flushes, atrail.Flushes)
	bflushes := d(btrail.Flushes, abtrail.Flushes)
	dp := b.dp
	return map[string]metric{
		"wire.rtt_p50_us":    wall(p50us(b.wireLat, a.wireLat), "us"),
		"wire.bytes_per_op":  count(div(d(b.wire.Bytes(), a.wire.Bytes()), ops), "B/op"),
		"wire.frames_per_op": count(div(d(b.wire.Frames(), a.wire.Frames()), ops), "1/op"),

		"serve.queue_wait_p50_us": wall(p50us(b.queueWait, a.queueWait), "us"),

		"sql.plan_hit_rate": count(div(d(b.plans.Hits, a.plans.Hits), d(b.plans.Hits+b.plans.Misses, a.plans.Hits+a.plans.Misses)), "ratio"),

		"fs.msgs_per_op":   count(div(d(b.net.Messages(), a.net.Messages()), ops), "1/op"),
		"fs.bytes_per_op":  count(div(d(b.net.Bytes(), a.net.Bytes()), ops), "B/op"),
		"msg.local_p50_us": wall(p50us(b.local, a.local), "us"),
		"msg.bus_p50_us":   wall(p50us(b.bus, a.bus), "us"),

		"dp.service_us_per_req":         wall(div(d(dp.serviceNanos, a.dp.serviceNanos), d(dp.serviceOps, a.dp.serviceOps))/1e3, "us"),
		"dp.queue_wait_us_per_req":      wall(div(d(dp.queueNanos, a.dp.queueNanos), d(dp.queueOps, a.dp.queueOps))/1e3, "us"),
		"dp.rows_examined_per_returned": count(div(d(dp.scanned, a.dp.scanned), d(dp.returned, a.dp.returned)), "ratio"),
		"dp.redrives_per_scan":          count(div(d(dp.redrives, a.dp.redrives), d(dp.setRequests-dp.redrives, a.dp.setRequests-a.dp.redrives)), "ratio"),
		"dp.latch_waits_per_op":         count(div(d(dp.latchWaits, a.dp.latchWaits), ops), "1/op"),

		"lock.waits_per_txn": count(div(d(b.locks.Waits, a.locks.Waits), ops), "1/op"),
		"lock.timeouts":      count(d(b.locks.Timeouts, a.locks.Timeouts), "count"),
		"lock.deadlocks":     count(d(b.locks.Deadlocks, a.locks.Deadlocks), "count"),

		"cache.hit_rate":             count(div(d(dp.hits, a.dp.hits), d(dp.hits+dp.misses, a.dp.hits+a.dp.misses)), "ratio"),
		"cache.keyed_miss_rate":      count(div(d(dp.keyedMisses, a.dp.keyedMisses), d(dp.keyedHits+dp.keyedMisses, a.dp.keyedHits+a.dp.keyedMisses)), "ratio"),
		"cache.evictions_per_op":     count(div(d(dp.evictions, a.dp.evictions), ops), "1/op"),
		"cache.wal_stalls_per_op":    count(div(d(dp.walStalls, a.dp.walStalls), ops), "1/op"),
		"cache.shard_wait_us_per_op": wall(div(d(dp.shardWaitNanos, a.dp.shardWaitNanos), ops)/1e3, "us"),

		"wal.flushes_per_txn":      count(div(flushes, ops), "1/op"),
		"wal.commits_per_flush":    count(div(d(trail.CommitsFlushed, atrail.CommitsFlushed), flushes), "ratio"),
		"wal.timer_flush_share":    count(div(d(trail.TimerFlushes, atrail.TimerFlushes), flushes), "ratio"),
		"wal.explicit_flush_share": count(div(d(trail.ExplicitFlushes, atrail.ExplicitFlushes), flushes), "ratio"),
		"wal.audit_bytes_per_txn":  count(div(d(trail.BytesAppended, atrail.BytesAppended), ops), "B/op"),

		"disk.fsyncs_per_txn":    count(div(d(b.disk.Fsyncs, a.disk.Fsyncs), ops), "1/op"),
		"disk.commits_per_fsync": count(div(d(trail.CommitsFlushed, atrail.CommitsFlushed), d(b.auditVol.Fsyncs, a.auditVol.Fsyncs)), "ratio"),
		"disk.blocks_per_write":  count(div(d(b.disk.BlocksWritten, a.disk.BlocksWritten), d(b.disk.Writes, a.disk.Writes)), "ratio"),
		"disk.absorbed_share":    count(div(d(b.disk.Absorbed, a.disk.Absorbed), d(b.disk.Enqueued, a.disk.Enqueued)), "ratio"),

		"cluster.ship_batches_per_txn":     count(div(d(b.repl.ShippedBatches, a.repl.ShippedBatches), ops), "1/op"),
		"cluster.ship_bytes_per_txn":       count(div(d(b.repl.ShippedBytes, a.repl.ShippedBytes), ops), "B/op"),
		"cluster.degraded_acks":            count(d(b.repl.DegradedAcks, a.repl.DegradedAcks), "count"),
		"cluster.backup_commits_per_flush": count(div(d(btrail.CommitsFlushed, abtrail.CommitsFlushed), bflushes), "ratio"),
		"cluster.backup_timer_flush_share": count(div(d(btrail.TimerFlushes, abtrail.TimerFlushes), bflushes), "ratio"),

		"proc.cpu_us_per_op":      wall(div(us(b.cpu-a.cpu), ops), "us"),
		"proc.allocs_per_op":      count(div(d(b.mallocs, a.mallocs), ops), "1/op"),
		"proc.alloc_bytes_per_op": count(div(d(b.allocated, a.allocated), ops), "B/op"),
		"proc.gc_per_kop":         count(div(1000*float64(b.gcs-a.gcs), ops), "1/kop"),
	}
}

// btreeGet times the public Tree.Get on a side tree holding keys 0..n-1
// encoded as the workload's primary keys, all pages cached: the mean
// microseconds and heap allocations per Get.
func btreeGet(seed, n int64) (getUS, allocs float64, err error) {
	vol := disk.NewVolume("$BTREE", false)
	pool := cache.NewPool(vol, int(n/8)+64, nil)
	tree, err := btree.New(pool, vol, "SIDE", btree.NewLatches(nil))
	if err != nil {
		return 0, 0, err
	}
	val := make([]byte, 96)
	for k := int64(0); k < n; k++ {
		if err := tree.Insert(record.Int(k).AppendKey(nil), val, 0); err != nil {
			return 0, 0, fmt.Errorf("btree side tree: %w", err)
		}
	}
	const gets = 20000
	rng := rand.New(rand.NewSource(seed))
	probes := make([][]byte, gets)
	for i := range probes {
		probes[i] = record.Int(rng.Int63n(n)).AppendKey(nil)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, k := range probes {
		if _, err := tree.Get(k); err != nil {
			return 0, 0, fmt.Errorf("btree side tree: %w", err)
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return us(el) / gets, float64(m1.Mallocs-m0.Mallocs) / gets, nil
}

// fsyncFloor is the device floor: the median of a direct Write plus
// Sync of one block on a scratch file volume in the checkout.
func fsyncFloor(cfg config) (float64, error) {
	dir, err := scratchDir(cfg, "fsync")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	v, err := filevol.Open(filevol.Config{Path: filepath.Join(dir, "floor.vol"), Name: "$FLOOR"})
	if err != nil {
		return 0, err
	}
	defer v.Close()
	bn := v.Allocate()
	buf := make([]byte, disk.BlockSize)
	var lat hist
	for i := 0; i < 40; i++ {
		buf[0] = byte(i)
		t0 := time.Now()
		if err := v.Write(bn, buf); err != nil {
			return 0, err
		}
		if err := v.Sync(); err != nil {
			return 0, err
		}
		lat.add(time.Since(t0))
	}
	return us(lat.quantile(0.50)), nil
}
