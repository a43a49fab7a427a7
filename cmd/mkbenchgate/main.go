// Command mkbenchgate is the CI benchmark-regression gate: it compares a
// fresh benchmark run against the committed baseline artifacts and exits
// non-zero naming every benchmark whose allocations, bytes or estimator
// error regressed beyond the threshold.
//
// Kernel gate — fresh `go test -bench` output vs BENCH_kernels.json's
// "after" measurements (allocations within threshold plus half an alloc so
// zero-alloc paths stay zero-alloc, B/op within threshold plus 64 bytes; time
// is not compared):
//
//	go test -bench 'Kernel|RowKey|SortRows|EncodeDecode' -benchmem \
//	    ./internal/exec ./internal/relation | mkbenchgate -kernels BENCH_kernels.json -bench -
//
// Accuracy gate — fresh `mkbench -accuracy` multi-round report vs
// BENCH_accuracy.json (the calibration loop must still converge, and no
// workflow's final-round |makespan error| may exceed the baseline's beyond
// the threshold):
//
//	mkbench -accuracy -rounds 3 -accuracy-json /tmp/fresh.json
//	mkbenchgate -accuracy BENCH_accuracy.json -fresh-accuracy /tmp/fresh.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	kernels := flag.String("kernels", "", "committed kernel baseline (BENCH_kernels.json)")
	benchOut := flag.String("bench", "", `fresh "go test -bench -benchmem" output file ("-" = stdin)`)
	accuracy := flag.String("accuracy", "", "committed accuracy baseline (BENCH_accuracy.json)")
	freshAccuracy := flag.String("fresh-accuracy", "", "fresh accuracy report (mkbench -accuracy-json)")
	threshold := flag.Float64("threshold", 25, "allowed regression in percent")
	flag.Parse()

	th := *threshold / 100
	ran := false
	var regs []Regression

	if *kernels != "" || *benchOut != "" {
		if *kernels == "" || *benchOut == "" {
			fail("kernel gate needs both -kernels and -bench")
		}
		baseline, err := LoadKernelBaseline(*kernels)
		if err != nil {
			fail("%v", err)
		}
		var in io.Reader = os.Stdin
		if *benchOut != "-" {
			f, err := os.Open(*benchOut)
			if err != nil {
				fail("%v", err)
			}
			defer f.Close()
			in = f
		}
		fresh, err := ParseGoBench(in)
		if err != nil {
			fail("parse bench output: %v", err)
		}
		if len(fresh) == 0 {
			fail("no -benchmem benchmark lines in %s", *benchOut)
		}
		kregs, checked, missing := CompareKernels(fresh, baseline, th)
		fmt.Printf("kernel gate: %d benchmark(s) checked against %s (%d baseline entr%s not in this run), threshold %.0f%%\n",
			checked, *kernels, missing, plural(missing, "y", "ies"), *threshold)
		regs = append(regs, kregs...)
		ran = true
	}

	if *accuracy != "" || *freshAccuracy != "" {
		if *accuracy == "" || *freshAccuracy == "" {
			fail("accuracy gate needs both -accuracy and -fresh-accuracy")
		}
		base, err := loadAccuracyReport(*accuracy)
		if err != nil {
			fail("%v", err)
		}
		fresh, err := loadAccuracyReport(*freshAccuracy)
		if err != nil {
			fail("%v", err)
		}
		rounds := 1
		if fresh.Learning != nil {
			rounds = fresh.Learning.Rounds
		}
		fmt.Printf("accuracy gate: %d workflow(s) over %d round(s), fresh final mean |error| %.1f%% vs baseline %.1f%%, threshold %.0f%%\n",
			len(fresh.Workflows), rounds, 100*fresh.Summary.MeanAbsMakespanError, 100*base.Summary.MeanAbsMakespanError, *threshold)
		regs = append(regs, CompareAccuracy(fresh, base, th)...)
		ran = true
	}

	if !ran {
		fail("nothing to gate: pass -kernels/-bench and/or -accuracy/-fresh-accuracy")
	}
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, r)
	}
	if len(regs) > 0 {
		os.Exit(1)
	}
	fmt.Println("benchmark gate: ok")
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mkbenchgate: "+format+"\n", args...)
	os.Exit(1)
}
