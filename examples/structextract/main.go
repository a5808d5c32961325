// structextract: the §3.2 porting workflow end to end.
//
//  1. Read the HFI1 module's DWARF debugging information and generate
//     the padded-union header for sdma_state (the paper's Listing 1).
//
//  2. Simulate an Intel driver update that reshuffles the structure,
//     re-extract, and show the new offsets — the "porting effort on the
//     order of hours" claim.
//
//  3. Show what the extraction prevents: accessing a structure through
//     the old (stale) offsets reads the wrong field.
//
//     go run ./examples/structextract
package main

import (
	"fmt"
	"log"

	"repro/internal/dwarfx"
	"repro/internal/hfi"
	"repro/internal/kmem"
	"repro/internal/kstruct"
	"repro/internal/mem"
	"repro/internal/vas"
)

func main() {
	fields := []string{"current_state", "go_s99_running", "previous_state"}

	// --- Step 1: extract from the shipped driver version. ---
	regV1 := hfi.BuildRegistry(hfi.DriverVersion)
	v1, err := dwarfx.NewModule(regV1)
	if err != nil {
		log.Fatal(err)
	}
	rootV1, err := dwarfx.Decode(v1.Blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("module debug info: %s (%d bytes)\n\n", dwarfx.Producer(rootV1), len(v1.Blob))
	layoutV1, err := dwarfx.ExtractStruct(rootV1, "sdma_state", fields)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("generated header (the paper's Listing 1):")
	fmt.Println(dwarfx.GenerateCHeader(layoutV1))

	// --- Step 2: the vendor ships an update with a reshuffled layout. ---
	regV2 := kstruct.NewRegistry("hfi1-10.9-2")
	regV2.MustAdd(&kstruct.Layout{
		Name:     "sdma_state",
		ByteSize: 96, // grew: new tracing fields pushed everything down
		Fields: []kstruct.Field{
			{Name: "ss_lock", Offset: 0, Kind: kstruct.Bytes, ByteLen: 40, TypeName: "spinlock_t"},
			{Name: "trace_buf", Offset: 40, Kind: kstruct.Ptr, TypeName: "void *"},
			{Name: "current_state", Offset: 56, Kind: kstruct.Enum, TypeName: "sdma_states"},
			{Name: "go_s99_running", Offset: 64, Kind: kstruct.U32},
			{Name: "previous_state", Offset: 68, Kind: kstruct.Enum, TypeName: "sdma_states"},
		},
	})
	v2, err := dwarfx.NewModule(regV2)
	if err != nil {
		log.Fatal(err)
	}
	rootV2, err := dwarfx.Decode(v2.Blob)
	if err != nil {
		log.Fatal(err)
	}
	layoutV2, err := dwarfx.ExtractStruct(rootV2, "sdma_state", fields)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after the %s update, re-extraction yields:\n", dwarfx.Producer(rootV2))
	for _, f := range layoutV2.Fields {
		old := layoutV1.MustField(f.Name)
		fmt.Printf("  %-16s offset %2d -> %2d\n", f.Name, old.Offset, f.Offset)
	}

	// --- Step 3: what stale offsets would do. ---
	pm, err := mem.NewPhysMem(mem.Region{Base: 0, Size: 8 << 20, Kind: mem.DDR4, Owner: "k"})
	if err != nil {
		log.Fatal(err)
	}
	space, err := kmem.NewSpace("k", vas.LinuxLayout(), pm.Partition("k"), []int{0})
	if err != nil {
		log.Fatal(err)
	}
	// The NEW driver writes through the NEW layout...
	authoritative, _ := regV2.Lookup("sdma_state")
	obj, err := kstruct.New(space, authoritative, 0)
	if err != nil {
		log.Fatal(err)
	}
	const running = 9 // sdma_state s99_running
	if err := obj.SetU("current_state", running); err != nil {
		log.Fatal(err)
	}
	// ...re-extracted offsets read it back correctly:
	fresh := kstruct.Obj{Space: space, Addr: obj.Addr, Layout: layoutV2}
	v, _ := fresh.GetU("current_state")
	fmt.Printf("\nre-extracted layout reads current_state = %d (correct)\n", v)
	// ...while the stale v1 header silently reads garbage:
	stale := kstruct.Obj{Space: space, Addr: obj.Addr, Layout: layoutV1}
	w, _ := stale.GetU("current_state")
	fmt.Printf("stale v1 offsets read current_state = %d (silently wrong — the §3.2 hazard)\n", w)
}
