// Place-and-route: the combined flow the paper points to ("our routing
// algorithms easily integrate into existing layout frameworks to yield
// combined place-and-route tools"). A deliberately scrambled placement is
// improved by simulated annealing on half-perimeter wirelength, then both
// placements are routed; better placement translates directly into lower
// routed wirelength and smaller feasible channel width.
//
//	go run ./examples/placeandroute
package main

import (
	"fmt"
	"math/rand"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/place"
	"fpgarouter/internal/router"
)

func main() {
	spec := circuits.Spec{
		Name: "scrambled", Series: circuits.Series4000,
		Cols: 8, Rows: 8, Nets2_3: 40, Nets4_10: 12,
	}
	ckt, err := circuits.Synthesize(spec, 5)
	if err != nil {
		panic(err)
	}
	// Scramble the (locality-aware) synthesized placement to simulate an
	// unplaced design.
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(spec.Cols * spec.Rows)
	bad := &circuits.Circuit{Spec: ckt.Spec}
	for _, n := range ckt.Nets {
		nn := circuits.Net{ID: n.ID}
		for _, p := range n.Pins {
			pos := perm[p.Y*spec.Cols+p.X]
			q := p
			q.X, q.Y = pos%spec.Cols, pos/spec.Cols
			nn.Pins = append(nn.Pins, q)
		}
		bad.Nets = append(bad.Nets, nn)
	}

	start := time.Now()
	placed, st := place.Anneal(bad, 1, place.Options{})
	fmt.Printf("annealing: HPWL %.0f -> %.0f (%d/%d moves accepted, %v)\n",
		st.InitialHPWL, st.FinalHPWL, st.Accepted, st.Moves, time.Since(start).Round(time.Millisecond))

	for _, tc := range []struct {
		name string
		c    *circuits.Circuit
	}{{"scrambled", bad}, {"annealed", placed}} {
		w, res, err := router.MinWidthCtx(nil, tc.c, 8, router.Options{MaxPasses: 8})
		if err != nil {
			fmt.Printf("%-10s: %v\n", tc.name, err)
			continue
		}
		fmt.Printf("%-10s: min channel width %2d, routed wirelength %.0f\n",
			tc.name, w, res.Wirelength)
	}
}
