// The mask-plane construction boundary: //parbor:planebuild work is
// once-per-materialization and off-limits to //parbor:hotpath callers.
package core

// buildPlanes is plane construction: allocation-heavy, once per row.
//
//parbor:planebuild
func buildPlanes(rows []int) []int {
	out := make([]int, 0, len(rows))
	for _, r := range rows {
		out = append(out, r*2)
	}
	return out
}

// hotRebuild reaches plane construction from the read path.
//
//parbor:hotpath
func hotRebuild(rows []int) int {
	p := buildPlanes(rows) // want hotalloc `calls //parbor:planebuild function buildPlanes`
	return p[0]
}

// hotAndBuild claims to be both the per-read hot loop and the
// once-per-materialization build.
//
//parbor:hotpath
//parbor:planebuild
func hotAndBuild(rows []int) int { // want hotalloc `conflicting //parbor:hotpath and //parbor:planebuild`
	return rows[0]
}

// coldRebuild is not a hot path: calling plane construction from
// setup code is the intended use.
func coldRebuild(rows []int) []int {
	return buildPlanes(rows)
}
