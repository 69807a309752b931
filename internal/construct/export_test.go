package construct

import "repro/internal/metric"

// SolicitForTest is Builder.solicit for the external test package,
// which has to be external to import the overlay beside the Builder.
func (b *Builder) SolicitForTest(u, v metric.Point) error { return b.solicit(u, v) }
