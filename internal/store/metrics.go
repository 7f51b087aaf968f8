package store

// Telemetry handles, resolved once at init: every serving-path record is
// atomic bumps on these, never a registry lookup.

import "planarflow/internal/obs"

var (
	mQueueWait = obs.Default().Histogram("store_queue_wait_seconds",
		"Time spent waiting for the store registry lock on acquire (held for bookkeeping only; restores run outside it).")
	mAcquire = obs.Default().Histogram("store_acquire_seconds",
		"Bundle acquire latency: registry lookup, LRU touch, pin, and on a miss the disk-tier restore or the wait for another caller's.")
	mRestore = obs.Default().Histogram("store_restore_seconds",
		"Disk-tier snapshot restore latency (successful restores only).")
	mRestoreWait = obs.Default().Histogram("store_restore_wait_seconds",
		"Time a caller waited on another caller's in-flight disk-tier restore of the same graph.")
	mSpillWrite = obs.Default().Histogram("store_spill_write_seconds",
		"Disk-tier snapshot write latency (evictions and explicit snapshots).")
)
