package core

import "repro/internal/kstruct"

// UseLayouts makes h read and write driver structures through reg from
// now on, as a PicoDriver built from reg's layouts would.
func UseLayouts(h *HFIPico, reg *kstruct.Registry) { h.reg = reg }
