// Command dtgp-gen synthesises a benchmark design and writes the complete
// ICCAD-2015-style file set (.aux/.nodes/.nets/.pl/.scl/.wts/.v/.lib/.sdc).
//
// Usage:
//
//	dtgp-gen -preset superblue4 -scale 256 -out bench/
//	dtgp-gen -cells 5000 -seed 7 -name mydesign -out bench/
package main

import (
	"flag"
	"fmt"
	"os"

	"dtgp"
)

func main() {
	var (
		preset = flag.String("preset", "", "superblue preset name or paper-scale alias like superblue-1.9M (overrides -cells)")
		scale  = flag.Int("scale", 256, "preset scale divisor, ≥ 1 (the paper-scale aliases ignore it)")
		cells  = flag.Int("cells", 4000, "target cell count for custom designs")
		seed   = flag.Int64("seed", 1, "generator seed for custom designs")
		name   = flag.String("name", "design", "design name for custom designs")
		out    = flag.String("out", ".", "output directory")
		period = flag.Float64("period", 0, "override clock period in ps (0 = generator default)")
	)
	flag.Parse()

	var (
		d   *dtgp.Design
		con *dtgp.Constraints
		err error
	)
	if *preset != "" {
		d, con, err = dtgp.GenerateBenchmark(*preset, *scale)
	} else {
		d, con, err = dtgp.GenerateCustom(*name, *cells, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtgp-gen:", err)
		os.Exit(1)
	}
	if *period > 0 {
		con.Period = *period
	}
	if err := dtgp.SaveBenchmark(*out, d.Name, d, con); err != nil {
		fmt.Fprintln(os.Stderr, "dtgp-gen:", err)
		os.Exit(1)
	}
	s := d.Stats()
	fmt.Printf("wrote %s/%s.{aux,nodes,nets,pl,scl,wts,v,lib,sdc}\n", *out, d.Name)
	fmt.Printf("cells %d  nets %d  pins %d  seq %d  ports %d  clock %g ps\n",
		s.Cells, s.Nets, s.Pins, s.Sequential, s.Ports, con.Period)
}
