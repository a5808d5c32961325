package hfi

import (
	"sync"

	"repro/internal/dwarfx"
	"repro/internal/kstruct"
)

// DriverVersion identifies the "shipped module binary". Bumping it (and
// changing layouts) models an Intel driver update; the PicoDriver re-
// extracts offsets from the new module's debug info (§3.2: "the porting
// effort has been on the order of hours").
const DriverVersion = "hfi1-10.8-0"

// SDMA engine run state values (enum sdma_states). SdmaStateS99Running
// is the operational state the fast path checks before submitting.
const (
	SdmaStateS00Halted   uint64 = 0
	SdmaStateS10Idle     uint64 = 1
	SdmaStateS99Running  uint64 = 9
	SdmaStateHaltWait    uint64 = 5
	SdmaStateSwCleanWait uint64 = 6
)

// TIDBitmapBytes supports 4096 RcvArray entries per context.
const TIDBitmapBytes = 512

// TIDsPerContext is the RcvArray size per receive context.
const TIDsPerContext = TIDBitmapBytes * 8

// BuildRegistry returns the authoritative structure layouts compiled
// into the given driver version. The Linux driver accesses its state
// through these; the PicoDriver must discover them via DWARF extraction.
//
// Layouts intentionally contain fields the fast path never touches —
// most driver state is used exclusively by functionality that stays in
// Linux (§3.2).
func BuildRegistry(version string) *kstruct.Registry {
	reg := kstruct.NewRegistry(version)

	// The Listing 1 structure, embedded in sdma_engine.
	reg.MustAdd(&kstruct.Layout{
		Name:     "sdma_state",
		ByteSize: 64,
		Fields: []kstruct.Field{
			{Name: "ss_lock", Offset: 0, Kind: kstruct.Bytes, ByteLen: 32, TypeName: "spinlock_t"},
			{Name: "last_event", Offset: 32, Kind: kstruct.U64},
			{Name: "current_state", Offset: 40, Kind: kstruct.Enum, TypeName: "sdma_states"},
			{Name: "go_s99_running", Offset: 48, Kind: kstruct.U32, TypeName: "unsigned int"},
			{Name: "previous_state", Offset: 52, Kind: kstruct.Enum, TypeName: "sdma_states"},
			{Name: "previous_op", Offset: 56, Kind: kstruct.U32},
		},
	})

	reg.MustAdd(&kstruct.Layout{
		Name:     "hfi1_devdata",
		ByteSize: 128,
		Fields: []kstruct.Field{
			{Name: "node", Offset: 0, Kind: kstruct.U32},
			{Name: "num_sdma", Offset: 4, Kind: kstruct.U32},
			{Name: "per_sdma", Offset: 8, Kind: kstruct.Ptr, TypeName: "struct sdma_engine *"},
			{Name: "kregbase", Offset: 16, Kind: kstruct.Ptr, TypeName: "void *"},
			{Name: "flags", Offset: 24, Kind: kstruct.U64},
			{Name: "unit", Offset: 32, Kind: kstruct.U32},
			{Name: "first_dyn_alloc_ctxt", Offset: 36, Kind: kstruct.U32},
			{Name: "lcb_err_cnt", Offset: 40, Kind: kstruct.U64},
			{Name: "rcv_err_cnt", Offset: 48, Kind: kstruct.U64},
		},
	})

	reg.MustAdd(&kstruct.Layout{
		Name:     "sdma_engine",
		ByteSize: 192,
		Fields: []kstruct.Field{
			{Name: "this_idx", Offset: 0, Kind: kstruct.U32},
			{Name: "tail_lock", Offset: 8, Kind: kstruct.Bytes, ByteLen: 8, TypeName: "spinlock_t"},
			{Name: "descq_tail", Offset: 16, Kind: kstruct.U64},
			{Name: "descq_cnt", Offset: 24, Kind: kstruct.U64},
			{Name: "desc_avail", Offset: 32, Kind: kstruct.U64},
			{Name: "sdma_shift", Offset: 40, Kind: kstruct.U32},
			{Name: "state", Offset: 64, Kind: kstruct.Bytes, ByteLen: 64, TypeName: "sdma_state"},
			{Name: "ahg_bits", Offset: 128, Kind: kstruct.U64},
			{Name: "err_cnt", Offset: 136, Kind: kstruct.U64},
			{Name: "sdma_int_cnt", Offset: 144, Kind: kstruct.U64},
		},
	})

	reg.MustAdd(&kstruct.Layout{
		Name:     "hfi1_filedata",
		ByteSize: 96,
		Fields: []kstruct.Field{
			{Name: "ctxt", Offset: 0, Kind: kstruct.U32},
			{Name: "subctxt", Offset: 4, Kind: kstruct.U32},
			{Name: "dd", Offset: 8, Kind: kstruct.Ptr, TypeName: "struct hfi1_devdata *"},
			{Name: "uctxt", Offset: 16, Kind: kstruct.Ptr, TypeName: "struct hfi1_ctxtdata *"},
			{Name: "user_seq", Offset: 24, Kind: kstruct.U64},
			{Name: "pq_state", Offset: 32, Kind: kstruct.U64},
			{Name: "invalid_tid_idx", Offset: 40, Kind: kstruct.U32},
		},
	})

	reg.MustAdd(&kstruct.Layout{
		Name:     "hfi1_ctxtdata",
		ByteSize: 1024,
		Fields: []kstruct.Field{
			{Name: "ctxt", Offset: 0, Kind: kstruct.U32},
			{Name: "node", Offset: 4, Kind: kstruct.U32},
			{Name: "cq_lock", Offset: 8, Kind: kstruct.Bytes, ByteLen: 8, TypeName: "spinlock_t"},
			{Name: "tid_lock", Offset: 16, Kind: kstruct.Bytes, ByteLen: 8, TypeName: "spinlock_t"},
			{Name: "tid_used", Offset: 24, Kind: kstruct.U32},
			{Name: "tid_cnt", Offset: 28, Kind: kstruct.U32},
			{Name: "status_kva", Offset: 32, Kind: kstruct.Ptr, TypeName: "void *"},
			{Name: "hdrq_kva", Offset: 40, Kind: kstruct.Ptr, TypeName: "void *"},
			{Name: "eager_kva", Offset: 48, Kind: kstruct.Ptr, TypeName: "void *"},
			{Name: "cq_kva", Offset: 56, Kind: kstruct.Ptr, TypeName: "void *"},
			{Name: "hdrq_entries", Offset: 64, Kind: kstruct.U32},
			{Name: "eager_slots", Offset: 68, Kind: kstruct.U32},
			{Name: "cq_entries", Offset: 72, Kind: kstruct.U32},
			{Name: "rcvhdrq_cnt", Offset: 76, Kind: kstruct.U32},
			{Name: "tid_map", Offset: 80, Kind: kstruct.Bytes, ByteLen: TIDBitmapBytes, TypeName: "unsigned long[]"},
			{Name: "sdma_comp_seq", Offset: 600, Kind: kstruct.U64},
			{Name: "flags", Offset: 608, Kind: kstruct.U64},
			{Name: "expected_count", Offset: 616, Kind: kstruct.U32},
			{Name: "expected_base", Offset: 620, Kind: kstruct.U32},
		},
	})

	reg.MustAdd(&kstruct.Layout{
		Name:     "user_sdma_txreq",
		ByteSize: 64,
		Fields: []kstruct.Field{
			{Name: "ctxt_kva", Offset: 0, Kind: kstruct.Ptr, TypeName: "struct hfi1_ctxtdata *"},
			{Name: "comp_seq", Offset: 8, Kind: kstruct.U64},
			{Name: "allocator", Offset: 16, Kind: kstruct.U32},
			{Name: "engine", Offset: 20, Kind: kstruct.U32},
			{Name: "nreq", Offset: 24, Kind: kstruct.U64},
			{Name: "bytes", Offset: 32, Kind: kstruct.U64},
			{Name: "status", Offset: 40, Kind: kstruct.U32},
		},
	})

	return reg
}

// shippedModule is the DriverVersion build every driver instance loads.
// It is the same on every node, so a process builds it once and all
// instances share it read-only.
var shippedModule = sync.OnceValues(func() (dwarfx.Module, error) {
	return dwarfx.NewModule(BuildRegistry(DriverVersion))
})
