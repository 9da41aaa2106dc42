package stats

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"time"
)

// WritePrometheus writes the snapshot's counters in the Prometheus text
// exposition format, each metric name prefixed with prefix (for example
// "fpgarouter"). Names, types and help texts come from the Snapshot field
// tags: int64 fields print as counts, time.Duration fields in seconds, and
// the congestion histogram as one series per decile label. The service's
// /metrics endpoint (cmd/routed) composes this with its own job-queue
// gauges; it is equally usable for ad-hoc scraping of a batch run.
func (s Snapshot) WritePrometheus(w io.Writer, prefix string) {
	v := reflect.ValueOf(s)
	for i := range v.NumField() {
		field := v.Type().Field(i)
		metric, kind, _ := strings.Cut(field.Tag.Get("metric"), ",")
		if kind == "" {
			kind = "counter"
		}
		name := prefix + "_" + metric
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, field.Tag.Get("help"), name, kind)
		switch x := v.Field(i).Interface().(type) {
		case int64:
			fmt.Fprintf(w, "%s %d\n", name, x)
		case time.Duration:
			fmt.Fprintf(w, "%s %g\n", name, x.Seconds())
		case [CongestionBuckets]int64:
			for decile, n := range x {
				fmt.Fprintf(w, "%s{decile=\"%d\"} %d\n", name, decile, n)
			}
		default:
			panic(fmt.Sprintf("stats: Snapshot.%s has no exposition format", field.Name))
		}
	}
}
