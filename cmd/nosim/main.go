// Command nosim runs a network-oblivious algorithm on M(p,B) and prints
// the communication/computation accounting against the paper's Table II
// prediction, plus the D-BSP communication time under a geometric g vector.
//
// Usage:
//
//	nosim -algo fft -n 1024 -p 8 -B 4
//	nosim -algo ngep-d -n 1024 -p 8 -B 4   (I-GEP's 𝒟 ordering, Table I)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"oblivhm/internal/harness"
	"oblivhm/internal/no"
)

func main() {
	algo := flag.String("algo", "mt", "algorithm: "+strings.Join(harness.NOAlgos(), "|"))
	n := flag.Int("n", 1024, "input size")
	p := flag.Int("p", 8, "processors")
	b := flag.Int("B", 4, "block size (words)")
	flag.Parse()

	res, err := harness.RunNO(*algo, *n, *p, *b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nosim:", err)
		if errors.Is(err, no.ErrUsage) {
			fmt.Fprintln(os.Stderr, "hint: -p must divide -n and both must fit the algorithm's shape (powers of two for fft/sort/prefix, n a square for mt, mm and ngep); try e.g. -n 1024 -p 8")
		}
		os.Exit(1)
	}
	fmt.Println(res)
}
