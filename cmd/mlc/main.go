// Command mlc mimics Intel Memory Latency Checker against the simulated
// system: idle (pointer-chase) latency and loaded bandwidth per device.
//
// Usage:
//
//	mlc                 # idle latency + all-read bandwidth for every device
//	mlc -mix 2:1        # bandwidth at a specific read:write mix
//	mlc -buffer         # 32 MB SNC buffer-latency experiment (§4.3)
package main

import (
	"flag"
	"fmt"
	"os"

	"cxlmem/internal/mem"
	"cxlmem/internal/mlc"
	"cxlmem/internal/topo"
)

func main() {
	mixFlag := flag.String("mix", "all", "read:write mix: all, 3:1, 2:1, 1:1")
	buffer := flag.Bool("buffer", false, "run the 32MB SNC buffer-latency experiment")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mlc: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	if *buffer {
		runBuffer()
		return
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlc:", err)
		os.Exit(2)
	}

	fmt.Printf("%-8s  %14s  %16s  %10s\n", "Device", "Idle lat (ns)", "Bandwidth (GB/s)", "Efficiency")
	for _, name := range []string{"DDR5-L", "DDR5-R", "CXL-A", "CXL-B", "CXL-C"} {
		sys := topo.NewSystem(topo.MicrobenchConfig())
		p := sys.Path(name)
		idle := mlc.IdleLatency(sys, p, 20000, 1)
		bw := mlc.LoadedBandwidth(p, mix)
		fmt.Printf("%-8s  %14.1f  %16.1f  %9.1f%%\n",
			name, idle.Nanoseconds(), bw.AchievedGBs, bw.Efficiency*100)
	}
}

func parseMix(s string) (mem.MixPoint, error) {
	switch s {
	case "all":
		return mem.AllRead, nil
	case "3:1":
		return mem.RW31, nil
	case "2:1":
		return mem.RW21, nil
	case "1:1":
		return mem.RW11, nil
	default:
		return 0, fmt.Errorf("unknown mix %q", s)
	}
}

func runBuffer() {
	const buf = 32 << 20
	for _, name := range []string{"DDR5-L", "CXL-A"} {
		sys := topo.NewSystem(topo.DefaultConfig()) // SNC on
		lat := mlc.BufferLatency(sys, sys.Path(name), buf, 200000, 3)
		fmt.Printf("%-8s  32MB random buffer: %.1f ns avg\n", name, lat.Nanoseconds())
	}
	fmt.Println("(paper §4.3: DDR5-L 76.8 ns vs CXL-A 41 ns — O6)")
}
