package obs

// Go runtime gauges for /metricsz. All values are read at scrape time
// only — registering these costs nothing on request paths.

import (
	"runtime"
	"sync"
)

// memStats caches one ReadMemStats per scrape pass: the registry
// evaluates each gauge callback independently, and ReadMemStats
// stops the world, so the heap gauges share a short-lived snapshot.
var memStats struct {
	mu sync.Mutex
	ms runtime.MemStats
}

func readMem(f func(*runtime.MemStats) float64) func() float64 {
	return func() float64 {
		memStats.mu.Lock()
		defer memStats.mu.Unlock()
		runtime.ReadMemStats(&memStats.ms)
		return f(&memStats.ms)
	}
}

// registerRuntimeGauges installs goroutine, heap, and GC gauges on r —
// on Default alone, which every /metricsz merges exactly once. Idempotent:
// re-registration replaces callbacks in place.
func registerRuntimeGauges(r *Registry) {
	r.Gauge("go_goroutines", "Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.Gauge("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.",
		readMem(func(ms *runtime.MemStats) float64 { return float64(ms.HeapAlloc) }))
	r.Gauge("go_memstats_heap_sys_bytes", "Heap bytes obtained from the OS.",
		readMem(func(ms *runtime.MemStats) float64 { return float64(ms.HeapSys) }))
	r.Gauge("go_memstats_heap_objects", "Number of allocated heap objects.",
		readMem(func(ms *runtime.MemStats) float64 { return float64(ms.HeapObjects) }))
	r.Gauge("go_gc_cycles_total", "Completed GC cycles.",
		readMem(func(ms *runtime.MemStats) float64 { return float64(ms.NumGC) }))
	r.Gauge("go_gc_pause_total_seconds", "Cumulative GC stop-the-world pause.",
		readMem(func(ms *runtime.MemStats) float64 { return float64(ms.PauseTotalNs) / 1e9 }))
}
