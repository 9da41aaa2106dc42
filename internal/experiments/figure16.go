package experiments

import (
	"errors"
	"fmt"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/render"
	"fpgarouter/internal/router"
)

// Figure16Result is the rendered routing of the busc benchmark (the paper's
// Figure 16 shows the router's complete solution for busc).
type Figure16Result struct {
	Width  int
	Passes int
	ASCII  string
	SVG    string
}

// Figure16 routes busc at the smallest width our router achieves and
// renders the solution as ASCII channel utilization and an SVG plot.
func Figure16(cfg RouterConfig) (Figure16Result, error) {
	spec, ok := circuits.SpecByName("busc")
	if !ok {
		return Figure16Result{}, fmt.Errorf("figure16: busc spec missing")
	}
	ckt, err := circuits.Synthesize(spec, cfg.Seed)
	if err != nil {
		return Figure16Result{}, err
	}
	ctx := cfg.newContext()
	defer ctx.Close()
	opts := cfg.Options
	opts.Algorithm = router.AlgIKMB
	opts.Parallel = false // Figure 16 is the sequential router's solution
	for w := spec.PaperIKMB; w <= 4*spec.CGE; w++ {
		res, fab, err := router.RouteWithFabricCtx(ctx, ckt, w, opts)
		if err != nil {
			if errors.Is(err, router.ErrUnroutable) {
				continue
			}
			return Figure16Result{}, err
		}
		return Figure16Result{
			Width:  w,
			Passes: res.Passes,
			ASCII:  render.UtilizationASCII(fab),
			SVG:    render.SVG(fab, res),
		}, nil
	}
	return Figure16Result{}, fmt.Errorf("figure16: busc unroutable")
}
