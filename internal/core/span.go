package core

import "bridge/internal/obs"

// srvMetrics are the server's typed metric handles, registered once at
// StartServer on the network's shared registry (so the servers of a
// distributed cluster aggregate into the same metrics).
type srvMetrics struct {
	lfsRetries        obs.Counter
	dedupHits         obs.Counter
	dedupStale        obs.Counter
	nodeRepairs       obs.Counter
	raHits            obs.Counter
	raMisses          obs.Counter
	raFills           obs.Counter
	raInvalidations   obs.Counter
	wbBuffered        obs.Counter
	wbFlushes         obs.Counter
	wbFlushedBlocks   obs.Counter
	wbDeferredErrors  obs.Counter
	healthTransitions obs.Counter
}

func newSrvMetrics(r *obs.Registry) srvMetrics {
	return srvMetrics{
		lfsRetries:        r.Counter("bridge.lfs_retries", "calls", "Server-side retransmissions of timed-out LFS calls."),
		dedupHits:         r.Counter("bridge.dedup_hits", "requests", "Retransmitted client operations answered from the client's session."),
		dedupStale:        r.Counter("bridge.dedup_stale", "requests", "Stale duplicates, below their client's latest operation, refused unrun."),
		nodeRepairs:       r.Counter("bridge.node_repairs", "repairs", "RepairNode sweeps that re-registered files on a restarted node."),
		raHits:            r.Counter("bridge.ra_hits", "blocks", "Sequential-read blocks served from the read-ahead buffer."),
		raMisses:          r.Counter("bridge.ra_misses", "blocks", "Sequential-read blocks that waited for a synchronous window fetch."),
		raFills:           r.Counter("bridge.ra_fills", "runs", "Asynchronous prefetch runs gathered into the read-ahead buffer."),
		raInvalidations:   r.Counter("bridge.ra_invalidations", "files", "Read-ahead buffer invalidations caused by file mutations."),
		wbBuffered:        r.Counter("bridge.wb_buffered", "blocks", "Appends acknowledged into the write-behind buffer before landing."),
		wbFlushes:         r.Counter("bridge.wb_flushes", "windows", "Write-behind windows flushed as vectored group commits."),
		wbFlushedBlocks:   r.Counter("bridge.wb_flushed_blocks", "blocks", "Blocks pushed to the LFS layer by write-behind flushes."),
		wbDeferredErrors:  r.Counter("bridge.wb_deferred_errors", "errors", "Acknowledged write-behind writes that later failed to land."),
		healthTransitions: r.Counter("health.transitions", "transitions", "Health-monitor state changes (healthy/suspect/dead) across all nodes."),
	}
}
