package fuzzdiff

import (
	"fmt"
	"strings"
)

// Describe renders a compact human-readable summary of a divergence for a
// failing test's message.
func (d Divergence) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "query: %s\n", d.SQL)
	for _, oc := range d.Outcomes {
		if oc.Err != "" {
			fmt.Fprintf(&sb, "  %-16s ERROR: %s\n", oc.Engine, oc.Err)
			continue
		}
		sum := oc.Fingerprint
		if len(sum) > 120 {
			sum = sum[:120] + "…"
		}
		fmt.Fprintf(&sb, "  %-16s %s\n", oc.Engine, strings.ReplaceAll(sum, "\n", " / "))
	}
	return sb.String()
}
