// Package detailed implements detailed placement: local refinement of a
// legalized placement that reduces wirelength without breaking legality.
// Two classic moves are used — intra-row adjacent swaps and global swaps of
// equal-width cells toward their optimal regions — completing the
// GP → LG → DP flow the paper's §1 describes.
package detailed

import (
	"fmt"
	"math"
	"sort"

	"dtgp/internal/geom"
	"dtgp/internal/netlist"
)

// Options configure refinement.
type Options struct {
	// Passes is the number of full sweeps (adjacent + global) to run.
	Passes int
	// GlobalSwapCandidates bounds how many same-width partners are tried
	// per cell in the global-swap phase.
	GlobalSwapCandidates int
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{Passes: 3, GlobalSwapCandidates: 6}
}

// Result reports refinement outcome.
type Result struct {
	HPWLBefore, HPWLAfter float64
	AdjacentSwaps         int
	GlobalSwaps           int
	Passes                int
}

// Refine improves the design in place. The input must be legal (row
// aligned, overlap free); the output stays legal.
func Refine(d *netlist.Design, opts Options) (*Result, error) {
	if opts.Passes <= 0 {
		opts.Passes = 3
	}
	if opts.GlobalSwapCandidates <= 0 {
		opts.GlobalSwapCandidates = 6
	}
	r := &refiner{d: d}
	if err := r.init(); err != nil {
		return nil, err
	}
	res := &Result{HPWLBefore: d.HPWL()}
	for pass := 0; pass < opts.Passes; pass++ {
		adj := r.adjacentSwapPass()
		glob := r.globalSwapPass(opts.GlobalSwapCandidates)
		res.AdjacentSwaps += adj
		res.GlobalSwaps += glob
		res.Passes++
		if adj+glob == 0 {
			break
		}
	}
	res.HPWLAfter = d.HPWL()
	return res, nil
}

type refiner struct {
	d *netlist.Design
	// rows[y-key] holds cell indices sorted by x.
	rowOf   map[int64][]int32 //dtgp:index elem=cell
	rowKeys []int64
}

func yKey(y float64) int64 { return int64(math.Round(y * 1e3)) }

func (r *refiner) init() error {
	d := r.d
	r.rowOf = map[int64][]int32{}
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if !c.Movable() || c.Class == netlist.ClassFiller {
			continue
		}
		k := yKey(c.Pos.Y)
		r.rowOf[k] = append(r.rowOf[k], int32(ci))
	}
	for k, cells := range r.rowOf {
		sort.Slice(cells, func(i, j int) bool {
			return d.Cells[cells[i]].Pos.X < d.Cells[cells[j]].Pos.X
		})
		// Sanity: no overlap.
		for i := 1; i < len(cells); i++ {
			a, b := &d.Cells[cells[i-1]], &d.Cells[cells[i]]
			if a.Pos.X+a.W > b.Pos.X+1e-6 {
				return fmt.Errorf("detailed: input not legal: %s overlaps %s", a.Name, b.Name)
			}
		}
		r.rowKeys = append(r.rowKeys, k)
	}
	sort.Slice(r.rowKeys, func(i, j int) bool { return r.rowKeys[i] < r.rowKeys[j] })
	return nil
}

// netsCost sums the HPWL of every net touching the given cells (each net
// once).
func (r *refiner) netsCost(cells ...int32) float64 {
	d := r.d
	seen := map[int32]bool{}
	total := 0.0
	for _, ci := range cells {
		for _, pid := range d.Cells[ci].Pins {
			ni := d.Pins[pid].Net
			if ni < 0 || seen[ni] {
				continue
			}
			seen[ni] = true
			total += d.NetHPWL(ni)
		}
	}
	return total
}

// adjacentSwapPass tries swapping each neighbouring pair in every row.
func (r *refiner) adjacentSwapPass() int {
	d := r.d
	swaps := 0
	for _, k := range r.rowKeys {
		cells := r.rowOf[k]
		for i := 0; i+1 < len(cells); i++ {
			a, b := cells[i], cells[i+1]
			ca, cb := &d.Cells[a], &d.Cells[b]
			// The pair occupies [ca.X, cb.X+cb.W); swapping keeps that
			// span (gap between them is preserved after b).
			gap := cb.Pos.X - (ca.Pos.X + ca.W)
			before := r.netsCost(a, b)
			ax, bx := ca.Pos.X, cb.Pos.X
			cb.Pos.X = ax
			ca.Pos.X = ax + cb.W + gap
			after := r.netsCost(a, b)
			if after < before-1e-9 {
				cells[i], cells[i+1] = b, a
				swaps++
			} else {
				ca.Pos.X, cb.Pos.X = ax, bx
			}
		}
	}
	return swaps
}

// globalSwapPass tries swapping each cell with same-width cells close to
// its optimal region (the median of its connected nets' bounding boxes).
func (r *refiner) globalSwapPass(candidates int) int {
	d := r.d
	// Bucket movable cells by width for partner lookup.
	type wkey int64
	byWidth := map[wkey][]int32{}
	wk := func(w float64) wkey { return wkey(math.Round(w * 1e3)) }
	for _, k := range r.rowKeys {
		for _, ci := range r.rowOf[k] {
			byWidth[wk(d.Cells[ci].W)] = append(byWidth[wk(d.Cells[ci].W)], ci)
		}
	}
	swaps := 0
	for _, k := range r.rowKeys {
		for _, a := range r.rowOf[k] {
			ca := &d.Cells[a]
			opt, ok := r.optimalRegion(a)
			if !ok {
				continue
			}
			// Already close to optimal: skip.
			if ca.Center().ManhattanDist(opt) < 2*ca.H {
				continue
			}
			partners := byWidth[wk(ca.W)]
			// Try the few partners nearest the optimal point.
			best := int32(-1)
			bestGain := 1e-9
			tried := 0
			for _, b := range nearestCells(d, partners, opt, candidates*4) {
				if b == a || tried >= candidates {
					continue
				}
				tried++
				cb := &d.Cells[b]
				before := r.netsCost(a, b)
				ca.Pos, cb.Pos = cb.Pos, ca.Pos
				after := r.netsCost(a, b)
				ca.Pos, cb.Pos = cb.Pos, ca.Pos // undo
				if gain := before - after; gain > bestGain {
					bestGain = gain
					best = b
				}
			}
			if best >= 0 {
				cb := &d.Cells[best]
				rowA, rowB := yKey(ca.Pos.Y), yKey(cb.Pos.Y)
				ca.Pos, cb.Pos = cb.Pos, ca.Pos
				r.swapEntries(a, best, rowA, rowB)
				swaps++
			}
		}
	}
	return swaps
}

// swapEntries fixes the row occupancy lists after cells a and b (equal
// width) exchanged positions: a's old slot now holds b and vice versa, and
// the x-order within each row is unchanged because the coordinates swapped
// exactly.
//
//dtgp:index a=cell b=cell
func (r *refiner) swapEntries(a, b int32, rowA, rowB int64) {
	if rowA == rowB {
		cells := r.rowOf[rowA]
		ia, ib := -1, -1
		for i, x := range cells {
			if x == a {
				ia = i
			}
			if x == b {
				ib = i
			}
		}
		if ia >= 0 && ib >= 0 {
			cells[ia], cells[ib] = cells[ib], cells[ia]
		}
		return
	}
	for i, x := range r.rowOf[rowA] {
		if x == a {
			r.rowOf[rowA][i] = b
			break
		}
	}
	for i, x := range r.rowOf[rowB] {
		if x == b {
			r.rowOf[rowB][i] = a
			break
		}
	}
}

// optimalRegion returns the point minimising the cell's connected-net
// wirelength: the median of the bounding boxes of its nets computed
// without the cell itself.
//
//dtgp:index ci=cell
func (r *refiner) optimalRegion(ci int32) (geom.Point, bool) {
	d := r.d
	var xs, ys []float64
	for _, pid := range d.Cells[ci].Pins {
		ni := d.Pins[pid].Net
		if ni < 0 {
			continue
		}
		lo := geom.Point{X: math.Inf(1), Y: math.Inf(1)}
		hi := geom.Point{X: math.Inf(-1), Y: math.Inf(-1)}
		n := 0
		for _, q := range d.Nets[ni].Pins {
			if d.Pins[q].Cell == ci {
				continue
			}
			p := d.PinPos(q)
			lo.X = math.Min(lo.X, p.X)
			lo.Y = math.Min(lo.Y, p.Y)
			hi.X = math.Max(hi.X, p.X)
			hi.Y = math.Max(hi.Y, p.Y)
			n++
		}
		if n == 0 {
			continue
		}
		xs = append(xs, lo.X, hi.X)
		ys = append(ys, lo.Y, hi.Y)
	}
	if len(xs) == 0 {
		return geom.Point{}, false
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	return geom.Point{X: xs[len(xs)/2], Y: ys[len(ys)/2]}, true
}

// nearestCells returns up to k cells from the candidate list closest to p.
//
//dtgp:index cands=[]cell return=[]cell
func nearestCells(d *netlist.Design, cands []int32, p geom.Point, k int) []int32 {
	type dc struct {
		ci   int32
		dist float64
	}
	ds := make([]dc, 0, len(cands))
	for _, ci := range cands {
		ds = append(ds, dc{ci, d.Cells[ci].Center().ManhattanDist(p)})
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].dist < ds[j].dist })
	if k > len(ds) {
		k = len(ds)
	}
	out := make([]int32, k)
	for i := 0; i < k; i++ {
		out[i] = ds[i].ci
	}
	return out
}
