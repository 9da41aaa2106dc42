// Channel-width minimization: synthesize the paper's busc benchmark (a
// 12×13 Xilinx-3000-style FPGA with 151 nets), search for the minimum
// channel width the IKMB router needs, and print the channel-utilization
// map of the winning solution — the end-to-end flow behind Table 2.
//
//	go run ./examples/channelwidth
package main

import (
	"fmt"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/render"
	"fpgarouter/internal/router"
)

func main() {
	spec, _ := circuits.SpecByName("busc")
	ckt, err := circuits.Synthesize(spec, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("busc: %d nets on a %dx%d array (published: CGE needs width %d, the paper's router %d)\n",
		len(ckt.Nets), spec.Cols, spec.Rows, spec.CGE, spec.PaperIKMB)

	start := time.Now()
	w, res, err := router.MinWidthCtx(nil, ckt, spec.PaperIKMB, router.Options{
		Algorithm: router.AlgIKMB,
		MaxPasses: 12,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("minimum channel width: %d (found in %v; %d pass(es) at that width)\n",
		w, time.Since(start).Round(time.Millisecond), res.Passes)
	fmt.Printf("total wirelength %.1f, max span utilization %d/%d\n\n",
		res.Wirelength, res.MaxUtil, w)

	// Re-route at the minimum width to obtain the committed fabric, then
	// render the utilization map (Figure 16 in the paper shows the routed
	// solution for this same circuit).
	_, fab, err := router.RouteWithFabricCtx(nil, ckt, w, router.Options{MaxPasses: 12})
	if err != nil {
		panic(err)
	}
	fmt.Print(render.UtilizationASCII(fab))
}
