package core

import (
	"fmt"

	"albireo/internal/obs"
)

// UnitRef names one PLCU by its (group, unit) coordinate.
type UnitRef struct {
	Group int `json:"group"`
	Unit  int `json:"unit"`
}

// String implements fmt.Stringer.
func (u UnitRef) String() string { return fmt.Sprintf("plcg%d/plcu%d", u.Group, u.Unit) }

// Quarantine marks PLCU (group, unit) unusable: every layer mapping
// (dense, depthwise, grouped, pointwise, FC, GEMM and the shard paths)
// remaps its kernel work onto the remaining healthy units deterministically
// (a group with fewer units takes more ceil(Wz/capacity) aggregation
// cycles; a fully-quarantined group is dropped from the kernel
// round-robin). The quarantined unit is never driven again, so its
// faults cannot reach any output: results are bit-identical to a
// healthy chip scheduled onto the same surviving units.
//
// Quarantining the last healthy unit on the chip is refused. Callers
// must not quarantine concurrently with a running layer.
func (c *Chip) Quarantine(group, unit int) error {
	if group < 0 || group >= c.cfg.Ng {
		return fmt.Errorf("core: quarantine group %d out of range [0,%d)", group, c.cfg.Ng)
	}
	if unit < 0 || unit >= c.cfg.Nu {
		return fmt.Errorf("core: quarantine unit %d out of range [0,%d)", unit, c.cfg.Nu)
	}
	if c.healthyUnits() == 1 {
		return fmt.Errorf("core: refusing to quarantine %v: it is the last healthy PLCU", UnitRef{group, unit})
	}
	if !c.groups[group].quarantine(unit) {
		return fmt.Errorf("core: %v is already quarantined", UnitRef{group, unit})
	}
	c.rebuildActiveGroups()
	c.schedEpoch++
	if c.ins != nil {
		c.ins.quarantines.Inc()
		if c.ins.trace != nil {
			sp := c.ins.trace.StartSpan("chip/quarantine")
			sp.Event(obs.UnitQuarantined, UnitRef{group, unit}.String(),
				obs.Int("plcg", int64(group)),
				obs.Int("plcu", int64(unit)),
				obs.Int("remaining_units", int64(c.healthyUnits())))
			sp.End()
		}
	}
	return nil
}

// ClearQuarantine restores every quarantined unit to service.
func (c *Chip) ClearQuarantine() {
	for _, g := range c.groups {
		g.restoreAll()
	}
	c.rebuildActiveGroups()
	c.schedEpoch++
}

// Quarantined lists the quarantined units in (group, unit) order.
func (c *Chip) Quarantined() []UnitRef {
	var out []UnitRef
	for gi, g := range c.groups {
		avail := make(map[int]bool, len(g.avail))
		for _, u := range g.avail {
			avail[u] = true
		}
		for u := range g.units {
			if !avail[u] {
				out = append(out, UnitRef{Group: gi, Unit: u})
			}
		}
	}
	return out
}

// Degraded reports whether any unit is quarantined.
func (c *Chip) Degraded() bool {
	return c.healthyUnits() != c.cfg.Ng*c.cfg.Nu
}

// healthyUnits counts schedulable PLCUs across the chip.
func (c *Chip) healthyUnits() int {
	n := 0
	for _, g := range c.groups {
		n += g.Capacity()
	}
	return n
}

// rebuildActiveGroups recomputes the kernel round-robin target list:
// the groups that still have schedulable capacity, ascending.
func (c *Chip) rebuildActiveGroups() {
	c.active = c.active[:0]
	for gi, g := range c.groups {
		if g.Capacity() > 0 {
			c.active = append(c.active, gi)
		}
	}
}

// assignGroup maps kernel (or depthwise channel) m onto a PLCG:
// round-robin over the groups with healthy capacity. On the healthy
// chip this is exactly m % Ng; under quarantine, work that would have
// landed on a dead group is remapped and counted.
func (c *Chip) assignGroup(m int) int {
	gi := c.activeGroup(m)
	if c.ins != nil && gi != m%c.cfg.Ng {
		c.ins.remaps.Inc()
	}
	return gi
}

// activeGroup is assignGroup without the remap accounting: the pure
// round-robin mapping. Program compilation uses it so cache rebuilds
// do not double-count remapped tiles.
func (c *Chip) activeGroup(m int) int {
	return c.active[m%len(c.active)]
}
