// Command dwarf-extract-struct reproduces the paper's §3.2 tool: walk a
// module's DWARF debugging information, find a structure, and emit a C
// header containing only the requested fields — each padded to its exact
// offset inside an unnamed union whose size matches the whole structure
// (Listing 1 of the paper).
//
// Usage:
//
//	dwarf-extract-struct <debug-blob> <struct> <field> [field...]
//	dwarf-extract-struct -hfi <struct> <field> [field...]
//	dwarf-extract-struct -hfi -list
//
// The -hfi mode reads the debugging information of the bundled simulated
// HFI1 driver instead of a file, and -list enumerates its structures.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dwarfx"
	"repro/internal/hfi"
)

func main() {
	hfiFlag := flag.Bool("hfi", false, "use the bundled HFI1 driver debug info")
	listFlag := flag.Bool("list", false, "list structures in the debug info")
	flag.Parse()
	args := flag.Args()

	var blob []byte
	var err error
	if *hfiFlag {
		m, err := dwarfx.NewModule(hfi.BuildRegistry(hfi.DriverVersion))
		if err != nil {
			fatal(err)
		}
		blob = m.Blob
	} else {
		if len(args) < 1 {
			usage()
		}
		blob, err = os.ReadFile(args[0])
		if err != nil {
			fatal(err)
		}
		args = args[1:]
	}

	root, err := dwarfx.Decode(blob)
	if err != nil {
		fatal(fmt.Errorf("parsing debug info: %w", err))
	}
	if *listFlag {
		fmt.Printf("producer: %s\n", dwarfx.Producer(root))
		for _, name := range dwarfx.StructNames(root) {
			fmt.Println(name)
		}
		return
	}
	if len(args) < 2 {
		usage()
	}
	structName, fields := args[0], args[1:]
	layout, err := dwarfx.ExtractStruct(root, structName, fields)
	if err != nil {
		fatal(err)
	}
	fmt.Print(dwarfx.GenerateCHeader(layout))
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dwarf-extract-struct [-hfi] [-list] [<debug-blob>] <struct> <field>...")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dwarf-extract-struct:", err)
	os.Exit(1)
}
