package decode

// Telemetry handles, resolved once and indexed by family: memo hit/miss
// counts (dualsssp keeps its row-cache names) and the cold-decode latency.
// A hit costs one atomic increment.

import "planarflow/internal/obs"

var (
	mHits = [numFamilies]*obs.Counter{
		dualSSSP:     obs.Default().Counter("decode_row_hits_total", "Dual-SSSP row cache hits."),
		girth:        obs.Default().Counter("decode_memo_hits_total", "Argless-family memo hits by family.", obs.L("family", "girth")),
		dirGirth:     obs.Default().Counter("decode_memo_hits_total", "", obs.L("family", "dirgirth")),
		globalMinCut: obs.Default().Counter("decode_memo_hits_total", "", obs.L("family", "globalmincut")),
	}
	mMisses = [numFamilies]*obs.Counter{
		dualSSSP:     obs.Default().Counter("decode_row_misses_total", "Dual-SSSP row cache misses (a fresh decode ran)."),
		girth:        obs.Default().Counter("decode_memo_misses_total", "Argless-family memo misses by family.", obs.L("family", "girth")),
		dirGirth:     obs.Default().Counter("decode_memo_misses_total", "", obs.L("family", "dirgirth")),
		globalMinCut: obs.Default().Counter("decode_memo_misses_total", "", obs.L("family", "globalmincut")),
	}
	mDecode = [numFamilies]*obs.Histogram{
		dualSSSP:     obs.Default().Histogram("decode_seconds", "Cold decode latency by family (cache misses only).", obs.L("family", "dualsssp")),
		girth:        obs.Default().Histogram("decode_seconds", "", obs.L("family", "girth")),
		dirGirth:     obs.Default().Histogram("decode_seconds", "", obs.L("family", "dirgirth")),
		globalMinCut: obs.Default().Histogram("decode_seconds", "", obs.L("family", "globalmincut")),
	}
)
