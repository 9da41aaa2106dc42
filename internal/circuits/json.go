package circuits

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"fpgarouter/internal/fpga"
)

// The netlist format.
//
// A netlist is a JSON document naming the circuit, its FPGA family and
// array size, and listing each net's pins as "x,y,SIDE,index" tuples (SIDE
// one of N/E/S/W), the first pin being the signal source:
//
//	{
//	  "name": "busc", "series": "3000", "cols": 12, "rows": 13,
//	  "nets": [
//	    {"id": 0, "pins": ["3,4,N,0", "5,4,S,1", "3,6,E,0"]},
//	    {"id": 1, "pins": ["0,0,E,0", "1,1,W,0"]}
//	  ]
//	}
//
// cmd/fpgaroute reads it from its -netlist file, cmd/routed accepts it as
// an inline netlist, and test fixtures use it for golden round trips. Only
// the structural fields travel: published-width metadata of the Spec (CGE,
// PaperIKMB, …) is dropped on encode, and the pin histogram is rebuilt on
// decode.

type circuitWire struct {
	Name   string    `json:"name"`
	Series string    `json:"series"`
	Cols   int       `json:"cols"`
	Rows   int       `json:"rows"`
	Nets   []netWire `json:"nets"`
}

type netWire struct {
	ID   int      `json:"id"`
	Pins []string `json:"pins"`
}

// MarshalJSON encodes the circuit in the netlist format.
func (c *Circuit) MarshalJSON() ([]byte, error) {
	w := circuitWire{Name: c.Name, Series: "4000", Cols: c.Cols, Rows: c.Rows}
	if c.Series == Series3000 {
		w.Series = "3000"
	}
	w.Nets = make([]netWire, len(c.Nets))
	for i, n := range c.Nets {
		pins := make([]string, len(n.Pins))
		for j, p := range n.Pins {
			pins[j] = fmt.Sprintf("%d,%d,%s,%d", p.X, p.Y, p.Side, p.Index)
		}
		w.Nets[i] = netWire{ID: n.ID, Pins: pins}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes and validates a circuit in the netlist format: a
// known series, a positive array size, every pin well-formed and inside
// the array, and at least two pins per net.
func (c *Circuit) UnmarshalJSON(data []byte) error {
	var w circuitWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("circuits: %w", err)
	}
	var series Series
	switch w.Series {
	case "3000":
		series = Series3000
	case "4000":
		series = Series4000
	default:
		return fmt.Errorf("circuits: unknown series %q", w.Series)
	}
	if w.Cols < 1 || w.Rows < 1 {
		return fmt.Errorf("circuits: bad array size %dx%d", w.Cols, w.Rows)
	}
	out := Circuit{Spec: Spec{Name: w.Name, Series: series, Cols: w.Cols, Rows: w.Rows}}
	for _, nw := range w.Nets {
		net := Net{ID: nw.ID, Pins: make([]fpga.Pin, 0, len(nw.Pins))}
		for _, tok := range nw.Pins {
			p, err := parsePin(tok, w.Cols, w.Rows)
			if err != nil {
				return fmt.Errorf("circuits: net %d: %w", nw.ID, err)
			}
			net.Pins = append(net.Pins, p)
		}
		if len(net.Pins) < 2 {
			return fmt.Errorf("circuits: net %d has fewer than 2 pins", nw.ID)
		}
		out.Nets = append(out.Nets, net)
	}
	out.Nets2_3, out.Nets4_10, out.NetsOver10 = out.PinHistogram()
	*c = out
	return nil
}

// parsePin parses an "x,y,SIDE,index" tuple.
func parsePin(tok string, cols, rows int) (fpga.Pin, error) {
	parts := strings.Split(tok, ",")
	if len(parts) != 4 {
		return fpga.Pin{}, fmt.Errorf("bad pin %q (want x,y,SIDE,index)", tok)
	}
	x, err1 := strconv.Atoi(parts[0])
	y, err2 := strconv.Atoi(parts[1])
	idx, err3 := strconv.Atoi(parts[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return fpga.Pin{}, fmt.Errorf("bad pin %q", tok)
	}
	var side fpga.Side
	switch parts[2] {
	case "N":
		side = fpga.North
	case "E":
		side = fpga.East
	case "S":
		side = fpga.South
	case "W":
		side = fpga.West
	default:
		return fpga.Pin{}, fmt.Errorf("bad pin side %q in %q", parts[2], tok)
	}
	if x < 0 || x >= cols || y < 0 || y >= rows || idx < 0 {
		return fpga.Pin{}, fmt.Errorf("pin %q outside the %dx%d array", tok, cols, rows)
	}
	return fpga.Pin{X: x, Y: y, Side: side, Index: idx}, nil
}
