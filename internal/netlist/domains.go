// Canonical index-domain declarations for the whole flow, consumed by the
// dtgp-vet indexspace analyzer (see internal/analysis/indexspace.go for
// the grammar). Every SoA column in the repo is subscripted by exactly one
// of these domains; the caps are the populations the paper's largest
// design (1.9M cells, Table 2) can reach, rounded up — they are the
// capacity facts the int32 narrowing and overflow checks compute with.
//
// cell/net/pin are the netlist spaces (Design.Cells/Nets/Pins). tnode is
// the timing-node space: 2*pin + transition (timing.TIdx). level numbers
// the topological levels of the timing graph. snode is the per-net
// Steiner/RC node space (rsmt.Tree and rctree.Tree share it by
// construction, hence the rcnode alias). npin is a net-local pin position
// (an index into one Net.Pins list). endp indexes the timing endpoints
// (at most one per pin). lcell/lpin index the bound Liberty library and
// one library cell's pin list. arcslot indexes the timing graph's cell-arc
// candidate table, one entry per (cell-output tnode, arc, input
// transition), and the differentiable timer's cell-arc tape, which shares
// its windows. A single-output cell with k inputs has k+1 pins and at most
// 4k candidates, so the cap allows four per pin; 200k-cell designs have
// 1.375 per pin. fanslot indexes the table's transpose, a permutation of
// the candidates grouped by input tnode. lut indexes the graph's pool of
// the library's delay and transition tables, four per library arc.
//
//dtgp:indexdomain cell cap=2000000
//dtgp:indexdomain net cap=2100000
//dtgp:indexdomain pin cap=8400000
//dtgp:indexdomain tnode cap=16800000
//dtgp:indexdomain level cap=16384
//dtgp:indexdomain snode cap=8192
//dtgp:indexdomain rcnode alias=snode
//dtgp:indexdomain npin cap=4096
//dtgp:indexdomain endp cap=8400000
//dtgp:indexdomain arcslot cap=33600000
//dtgp:indexdomain fanslot cap=33600000
//dtgp:indexdomain lut cap=4194304
//dtgp:indexdomain lcell cap=65536
//dtgp:indexdomain lpin cap=1024
package netlist
