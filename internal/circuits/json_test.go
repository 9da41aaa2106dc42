package circuits

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"fpgarouter/internal/fpga"
)

// goldenCircuitJSON is the frozen wire-format encoding of a tiny
// hand-built circuit. If this test breaks, the wire format changed — bump
// service clients deliberately, don't just re-record.
const goldenCircuitJSON = `{"name":"wiretest","series":"3000","cols":3,"rows":2,` +
	`"nets":[{"id":0,"pins":["0,0,N,0","2,1,S,1","1,0,E,0"]},` +
	`{"id":1,"pins":["0,1,W,1","2,0,N,1"]}]}`

func goldenCircuit() *Circuit {
	return &Circuit{
		Spec: Spec{Name: "wiretest", Series: Series3000, Cols: 3, Rows: 2},
		Nets: []Net{
			{ID: 0, Pins: []fpga.Pin{
				{X: 0, Y: 0, Side: fpga.North, Index: 0},
				{X: 2, Y: 1, Side: fpga.South, Index: 1},
				{X: 1, Y: 0, Side: fpga.East, Index: 0},
			}},
			{ID: 1, Pins: []fpga.Pin{
				{X: 0, Y: 1, Side: fpga.West, Index: 1},
				{X: 2, Y: 0, Side: fpga.North, Index: 1},
			}},
		},
	}
}

func TestCircuitJSONGolden(t *testing.T) {
	data, err := json.Marshal(goldenCircuit())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != goldenCircuitJSON {
		t.Fatalf("wire format drifted:\n got %s\nwant %s", data, goldenCircuitJSON)
	}
	var back Circuit
	if err := json.Unmarshal([]byte(goldenCircuitJSON), &back); err != nil {
		t.Fatal(err)
	}
	want := goldenCircuit()
	if back.Name != want.Name || back.Series != want.Series || back.Cols != want.Cols || back.Rows != want.Rows {
		t.Fatalf("header drifted: %+v", back.Spec)
	}
	if back.Nets2_3 != 2 || back.Nets4_10 != 0 || back.NetsOver10 != 0 {
		t.Fatalf("histogram not rebuilt: %+v", back.Spec)
	}
	if len(back.Nets) != len(want.Nets) {
		t.Fatalf("net count %d vs %d", len(back.Nets), len(want.Nets))
	}
	for i := range want.Nets {
		if back.Nets[i].ID != want.Nets[i].ID {
			t.Fatalf("net %d id %d vs %d", i, back.Nets[i].ID, want.Nets[i].ID)
		}
		for j, p := range want.Nets[i].Pins {
			if back.Nets[i].Pins[j] != p {
				t.Fatalf("net %d pin %d: %v vs %v", i, j, back.Nets[i].Pins[j], p)
			}
		}
	}
}

// TestCircuitJSONRoundTripSynthesized: synthesize → encode → decode must
// preserve every net and pin exactly, and re-encoding must be stable.
func TestCircuitJSONRoundTripSynthesized(t *testing.T) {
	ckt, err := Synthesize(Table2Circuits[0], 1) // busc
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(ckt)
	if err != nil {
		t.Fatal(err)
	}
	var back Circuit
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Nets) != len(ckt.Nets) {
		t.Fatalf("net count %d vs %d", len(back.Nets), len(ckt.Nets))
	}
	for i := range ckt.Nets {
		if back.Nets[i].ID != ckt.Nets[i].ID || len(back.Nets[i].Pins) != len(ckt.Nets[i].Pins) {
			t.Fatalf("net %d shape drifted", i)
		}
		for j := range ckt.Nets[i].Pins {
			if back.Nets[i].Pins[j] != ckt.Nets[i].Pins[j] {
				t.Fatalf("net %d pin %d drifted", i, j)
			}
		}
	}
	h23, h410, hov := back.PinHistogram()
	if h23 != back.Nets2_3 || h410 != back.Nets4_10 || hov != back.NetsOver10 {
		t.Fatalf("decoded histogram inconsistent")
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("re-encoding not stable")
	}
}

// TestNetlistRoundTrip: a synthesized 4000-series circuit keeps its
// header, every net and pin, and its pin histogram through an encode and a
// decode.
func TestNetlistRoundTrip(t *testing.T) {
	orig, err := Synthesize(Table3Circuits[2], 5) // term1
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var parsed Circuit
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Name != orig.Name || parsed.Cols != orig.Cols || parsed.Rows != orig.Rows || parsed.Series != orig.Series {
		t.Fatalf("header mismatch: %+v vs %+v", parsed.Spec, orig.Spec)
	}
	if len(parsed.Nets) != len(orig.Nets) {
		t.Fatalf("nets = %d, want %d", len(parsed.Nets), len(orig.Nets))
	}
	for i := range orig.Nets {
		if parsed.Nets[i].ID != orig.Nets[i].ID || !slices.Equal(parsed.Nets[i].Pins, orig.Nets[i].Pins) {
			t.Fatalf("net %d: id %d pins %v, want id %d pins %v", i, parsed.Nets[i].ID, parsed.Nets[i].Pins, orig.Nets[i].ID, orig.Nets[i].Pins)
		}
	}
	if parsed.Nets2_3 != orig.Nets2_3 || parsed.Nets4_10 != orig.Nets4_10 || parsed.NetsOver10 != orig.NetsOver10 {
		t.Fatalf("histogram %d/%d/%d, want %d/%d/%d", parsed.Nets2_3, parsed.Nets4_10, parsed.NetsOver10, orig.Nets2_3, orig.Nets4_10, orig.NetsOver10)
	}
}

// TestCircuitJSONFixture decodes the committed netlist fixture that
// fpgaroute -netlist routes in CI.
func TestCircuitJSONFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/demo.json")
	if err != nil {
		t.Fatal(err)
	}
	var c Circuit
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if c.Name != "demo" || c.Series != Series4000 || c.Cols != 4 || c.Rows != 4 {
		t.Fatalf("header: %+v", c.Spec)
	}
	want := [][]fpga.Pin{
		{{X: 0, Y: 0, Side: fpga.North}, {X: 1, Y: 1, Side: fpga.South}},
		{{X: 2, Y: 2, Side: fpga.East, Index: 1}, {X: 3, Y: 3, Side: fpga.West, Index: 2}, {X: 0, Y: 3, Side: fpga.North, Index: 1}},
		{{X: 3, Y: 0, Side: fpga.South}, {X: 0, Y: 2, Side: fpga.East}, {X: 2, Y: 3, Side: fpga.North}, {X: 1, Y: 2, Side: fpga.West, Index: 1}},
	}
	if len(c.Nets) != len(want) {
		t.Fatalf("nets = %d, want %d", len(c.Nets), len(want))
	}
	for i, pins := range want {
		if c.Nets[i].ID != i || !slices.Equal(c.Nets[i].Pins, pins) {
			t.Fatalf("net %d: id %d pins %v, want %v", i, c.Nets[i].ID, c.Nets[i].Pins, pins)
		}
	}
	if c.Nets2_3 != 2 || c.Nets4_10 != 1 || c.NetsOver10 != 0 {
		t.Fatalf("histogram %d/%d/%d, want 2/1/0", c.Nets2_3, c.Nets4_10, c.NetsOver10)
	}
}

// TestCircuitJSONRejects: every defect inside a netlist fails the decode
// with an error naming it. A pin index the series lacks, a shared pin and
// a repeated net id would otherwise reach the router, which panics on the
// first and silently shorts nets on the other two.
func TestCircuitJSONRejects(t *testing.T) {
	cases := map[string]struct{ in, want string }{
		"bad-series":        {`{"name":"x","series":"5000","cols":3,"rows":3,"nets":[]}`, `unknown series "5000"`},
		"bad-size":          {`{"name":"x","series":"4000","cols":0,"rows":3,"nets":[]}`, "bad array size 0x3"},
		"pin-out-of-array":  {`{"name":"x","series":"4000","cols":3,"rows":3,"nets":[{"id":0,"pins":["9,9,N,0","0,0,N,0"]}]}`, "outside the 3x3 array"},
		"bad-side":          {`{"name":"x","series":"4000","cols":3,"rows":3,"nets":[{"id":0,"pins":["0,0,Q,0","1,1,N,0"]}]}`, `bad pin side "Q"`},
		"bad-pin":           {`{"name":"x","series":"4000","cols":3,"rows":3,"nets":[{"id":0,"pins":["0,0,N","1,1,S,0"]}]}`, `bad pin "0,0,N"`},
		"negative-index":    {`{"name":"x","series":"4000","cols":3,"rows":3,"nets":[{"id":0,"pins":["0,0,N,-1","1,1,S,0"]}]}`, "outside the 3x3 array"},
		"bad-coordinate":    {`{"name":"x","series":"4000","cols":3,"rows":3,"nets":[{"id":0,"pins":["a,0,N,0","1,1,S,0"]}]}`, `bad pin "a,0,N,0"`},
		"short-net":         {`{"name":"x","series":"4000","cols":3,"rows":3,"nets":[{"id":0,"pins":["0,0,N,0"]}]}`, "fewer than 2 pins"},
		"bad-id":            {`{"name":"x","series":"4000","cols":3,"rows":3,"nets":[{"id":"x","pins":["0,0,N,0","1,1,S,0"]}]}`, "cannot unmarshal string"},
		"not-a-struct":      {`[1,2,3]`, "cannot unmarshal array"},
		"pin-index-3000":    {`{"name":"x","series":"3000","cols":3,"rows":3,"nets":[{"id":0,"pins":["0,0,N,2","1,1,S,0"]}]}`, `pin "0,0,N,2" index out of range: a block has 2 pins per side`},
		"pin-index-4000":    {`{"name":"x","series":"4000","cols":3,"rows":3,"nets":[{"id":0,"pins":["0,0,N,0","1,1,S,3"]}]}`, `pin "1,1,S,3" index out of range: a block has 3 pins per side`},
		"duplicate-net-id":  {`{"name":"x","series":"4000","cols":3,"rows":3,"nets":[{"id":0,"pins":["0,0,N,0","1,1,S,0"]},{"id":0,"pins":["2,2,N,0","1,1,S,1"]}]}`, "duplicate net id 0"},
		"shared-pin":        {`{"name":"x","series":"4000","cols":3,"rows":3,"nets":[{"id":0,"pins":["0,0,N,0","1,1,S,0"]},{"id":1,"pins":["2,2,N,0","0,0,N,0"]}]}`, `net 1: pin "0,0,N,0" already used by net 0`},
		"unknown-field":     {`{"name":"x","series":"4000","cols":3,"rows":3,"typo":1,"nets":[{"id":0,"pins":["0,0,N,0","1,1,S,0"]}]}`, `unknown field "typo"`},
		"unknown-net-field": {`{"name":"x","series":"4000","cols":3,"rows":3,"nets":[{"id":0,"typo":1,"pins":["0,0,N,0","1,1,S,0"]}]}`, `unknown field "typo"`},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var c Circuit
			err := json.Unmarshal([]byte(tc.in), &c)
			if err == nil {
				t.Fatal("decode succeeded, want error")
			}
			if !strings.HasPrefix(err.Error(), "circuits: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want the circuits: prefix and %q", err, tc.want)
			}
		})
	}
}

// TestParseErrors: input that is no netlist at all is rejected: an empty
// file, and nets with no circuit header. TestCircuitJSONRejects holds the
// defects inside a netlist.
func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":     ``,
		"no-header": `{"nets":[{"id":0,"pins":["0,0,N,0","1,1,S,0"]}]}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			var c Circuit
			if err := json.Unmarshal([]byte(in), &c); err == nil {
				t.Fatalf("input %q accepted", in)
			}
		})
	}
}
