package core

import "repro/internal/kstruct"

// UseLayouts makes h read and write driver structures through reg from
// now on, as a PicoDriver built from reg's layouts would.
func UseLayouts(h *HFIPico, reg *kstruct.Registry) { h.reg = reg }

// Layouts returns the registries h and m read driver structures
// through.
func Layouts(h *HFIPico, m *MLXPico) (hfiReg, mlxReg *kstruct.Registry) { return h.reg, m.reg }

// PortLayouts is portLayouts, the memoised extraction NewHFIPico and
// NewMLXPico run.
var PortLayouts = portLayouts
