package obs

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Runtime resource accounting: the "runtime.*" gauges published into
// the default registry — heap and stack sizes, GC cycles and total
// pause time, goroutine count, process RSS and uptime. The telemetry
// server starts a background collector and additionally refreshes the
// series on every /metrics scrape, so scrapes always see current
// values. Like every obs series the gauges only move while
// observability is enabled.
var (
	rtHeapAlloc   = G("runtime.heap_alloc_bytes")
	rtHeapSys     = G("runtime.heap_sys_bytes")
	rtHeapObjects = G("runtime.heap_objects")
	rtStackSys    = G("runtime.stack_sys_bytes")
	rtNextGC      = G("runtime.next_gc_bytes")
	rtTotalAlloc  = G("runtime.total_alloc_bytes")
	rtGoroutines  = G("runtime.goroutines")
	rtGCCycles    = G("runtime.gc.cycles")
	rtGCPause     = G("runtime.gc.pause_total_ns")
	rtRSS         = G("runtime.rss_bytes")
	rtUptime      = G("runtime.uptime_seconds")
)

// CollectRuntime publishes one sample of every runtime.* series. It is
// a no-op while observability is disabled.
func CollectRuntime() {
	if !enabled.Load() {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rtHeapAlloc.Set(float64(ms.HeapAlloc))
	rtHeapSys.Set(float64(ms.HeapSys))
	rtHeapObjects.Set(float64(ms.HeapObjects))
	rtStackSys.Set(float64(ms.StackSys))
	rtNextGC.Set(float64(ms.NextGC))
	rtTotalAlloc.Set(float64(ms.TotalAlloc))
	rtGoroutines.Set(float64(runtime.NumGoroutine()))
	rtGCCycles.Set(float64(ms.NumGC))
	rtGCPause.Set(float64(ms.PauseTotalNs))
	rtUptime.Set(time.Since(spanEpoch).Seconds())
	if rss, ok := readRSS(); ok {
		rtRSS.Set(float64(rss))
	}
}

// readRSS reads the resident set size from /proc/self/statm (Linux);
// elsewhere the gauge simply stays at its last value.
func readRSS() (uint64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return pages * uint64(os.Getpagesize()), true
}

// runtimeInterval is the background runtime.* sampling period.
const runtimeInterval = 2 * time.Second

// StartRuntimeCollector samples the runtime.* series every
// runtimeInterval on a background goroutine until the returned stop
// function is called. Stop is idempotent and waits for the goroutine
// to exit. It takes no sample at start: ReadMemStats stops the world,
// which would lengthen a server's start-up, and every /metrics scrape
// samples the series itself.
func StartRuntimeCollector() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(runtimeInterval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				CollectRuntime()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
